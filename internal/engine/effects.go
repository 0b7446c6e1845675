package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"tip/internal/blade"
	"tip/internal/catalog"
	"tip/internal/exec"
	"tip/internal/sql/ast"
	"tip/internal/types"
)

// Commit groups. A commit is logged as what it changed, not as the
// statements that changed it: one group of records per commit, framed
// once in the log (wal.go), shipped verbatim to replicas and applied by
// recovery and replica alike without parsing SQL. A snapshot is a run
// of frames whose groups rebuild the database (persist.go). The
// records:
//
//	put:          byte 1, str table, uvarint id, one value per column
//	delete:       byte 2, str table, uvarint id
//	create table: byte 3, str table, uvarint nCols,
//	              (str column, str typeName, byte notNull)*
//	drop table:   byte 4, str table
//	create index: byte 5, str index, str table, str column, byte kind
//	drop index:   byte 6, str index
//
// Values use the value codec, decoded against the table's column
// types. A put names the row's id, so replay places every row where the
// live database had it. No record carries NOW: rows keep NOW-relative
// endpoints unbound, and indexable columns have NOW-independent keys.
const (
	recPut byte = iota + 1
	recDelete
	recCreateTable
	recDropTable
	recCreateIndex
	recDropIndex
)

// maxRowID bounds the row id a record may name, so a damaged group
// cannot ask replay to extend a table by billions of slots.
const maxRowID = math.MaxInt32

// errBadGroup reports a group whose records do not decode. Callers wrap
// it with their own sentinel (ErrWAL, ErrBadSnapshot).
var errBadGroup = errors.New("malformed commit group")

func appendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// appendRecord starts a record: its kind, then its string fields. A
// drop table or drop index record is nothing more.
func appendRecord(buf []byte, kind byte, strs ...string) []byte {
	buf = append(buf, kind)
	for _, s := range strs {
		buf = appendString(buf, s)
	}
	return buf
}

func appendPut(buf []byte, table string, id int, row exec.Row) []byte {
	buf = binary.AppendUvarint(appendRecord(buf, recPut, table), uint64(id))
	for _, v := range row {
		buf = v.AppendBinary(buf)
	}
	return buf
}

func appendDelete(buf []byte, table string, id int) []byte {
	return binary.AppendUvarint(appendRecord(buf, recDelete, table), uint64(id))
}

func appendCreateTable(buf []byte, meta *catalog.TableMeta) []byte {
	buf = binary.AppendUvarint(appendRecord(buf, recCreateTable, meta.Name), uint64(len(meta.Columns)))
	for _, c := range meta.Columns {
		buf = appendString(appendString(buf, c.Name), c.Type.Name)
		notNull := byte(0)
		if c.NotNull {
			notNull = 1
		}
		buf = append(buf, notNull)
	}
	return buf
}

func appendCreateIndex(buf []byte, im *catalog.IndexMeta) []byte {
	return append(appendRecord(buf, recCreateIndex, im.Name, im.Table, im.Column), byte(im.Kind))
}

// record is one decoded group record; which fields are set depends on
// kind (see the layout above).
type record struct {
	kind   byte
	table  string
	id     int
	row    exec.Row
	create *ast.CreateTable
	index  catalog.IndexMeta // create index; drop index sets Name only
}

// groupReader decodes a group's bytes. The first error sticks: every
// later read returns zero values.
type groupReader struct {
	data  []byte
	err   error
	table string // the last table name read, reused while names repeat
}

func (r *groupReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{errBadGroup}, args...)...)
	}
	r.data = nil
}

func (r *groupReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail("truncated")
		return 0
	}
	r.data = r.data[n:]
	return v
}

func (r *groupReader) byte() byte {
	if len(r.data) < 1 {
		r.fail("truncated")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *groupReader) bytes() []byte {
	n := r.uvarint()
	if uint64(len(r.data)) < n {
		r.fail("truncated")
		return nil
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b
}

func (r *groupReader) str() string { return string(r.bytes()) }

// tableID reads a table name and a row id. The name's string is the
// previous record's while the bytes repeat it, as they mostly do.
func (r *groupReader) tableID() (string, int) {
	if b := r.bytes(); string(b) != r.table {
		r.table = string(b)
	}
	id := r.uvarint()
	if id > maxRowID {
		r.fail("row id %d", id)
	}
	return r.table, int(id)
}

// decodeGroup calls fn with each record of a group in order, stopping
// at the first error fn or the decoding returns. A put's values decode
// against the columns of its table: one an earlier record of the group
// creates, else the one schema reports. fn may keep rec.row and
// rec.create but not rec itself, which the next record overwrites.
func decodeGroup(reg *blade.Registry, data []byte, schema func(table string) (*catalog.TableMeta, bool), fn func(rec *record) error) error {
	r := groupReader{data: data}
	var created map[string]*catalog.TableMeta
	var rec record
	for len(r.data) > 0 {
		rec = record{kind: r.byte()}
		switch rec.kind {
		case recPut:
			rec.table, rec.id = r.tableID()
			meta, ok := schema(rec.table)
			if len(created) > 0 {
				if m, in := created[strings.ToLower(rec.table)]; in {
					meta, ok = m, true
				}
			}
			if !ok {
				r.fail("put into unknown table %s", rec.table)
				break
			}
			rec.row = make(exec.Row, len(meta.Columns))
			for i, c := range meta.Columns {
				v, rest, err := types.DecodeValue(c.Type, r.data)
				if err != nil {
					r.fail("table %s: %v", rec.table, err)
					break
				}
				rec.row[i], r.data = v, rest
			}
		case recDelete:
			rec.table, rec.id = r.tableID()
		case recCreateTable:
			rec.create = &ast.CreateTable{Name: r.str()}
			n := r.uvarint()
			if n > uint64(len(r.data)) {
				r.fail("column count %d", n)
				n = 0
			}
			rec.create.Columns = make([]ast.ColumnDef, n)
			for i := range rec.create.Columns {
				rec.create.Columns[i] = ast.ColumnDef{Name: r.str(), TypeName: r.str(), NotNull: r.byte() == 1}
			}
			if meta, err := tableMeta(reg, rec.create); err != nil {
				r.fail("%v", err)
			} else {
				if created == nil {
					created = make(map[string]*catalog.TableMeta)
				}
				created[strings.ToLower(meta.Name)] = meta
			}
		case recDropTable:
			rec.table = r.str()
		case recCreateIndex:
			rec.index = catalog.IndexMeta{Name: r.str(), Table: r.str(), Column: r.str()}
			rec.index.Kind = catalog.IndexKind(r.byte())
		case recDropIndex:
			rec.index.Name = r.str()
		default:
			r.fail("record kind %d", rec.kind)
		}
		if r.err != nil {
			return r.err
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	return nil
}

// applyGroup applies a commit group. Row records go through one writer
// per table, published together when the group ends; a DDL record
// first publishes the rows before it, then runs through the DDL code
// path. A group that fails publishes none of its rows (only snapshots,
// loaded into a staging database, mix DDL and rows). The caller
// serialises groups: recovery and the replica apply loop are each the
// database's only writer.
func (db *Database) applyGroup(payload []byte) error {
	var staged []stagedTable
	var writers []*exec.TableWriter
	writer := func(table string) (*exec.TableWriter, error) {
		for i, t := range staged {
			if t.name == table {
				return writers[i], nil
			}
		}
		tbl, ok := db.tables[strings.ToLower(table)]
		if !ok {
			return nil, fmt.Errorf("%w: no table %s", errBadGroup, table)
		}
		staged = append(staged, stagedTable{name: table, tbl: tbl})
		writers = append(writers, db.state.Load().tables[tbl.Slot].NewWriter())
		return writers[len(writers)-1], nil
	}
	publish := func() {
		for i, w := range writers {
			staged[i].v = w.Commit()
		}
		db.commitMu.Lock()
		db.publish(staged)
		db.commitMu.Unlock()
		staged, writers = staged[:0], writers[:0]
	}
	schema := func(table string) (*catalog.TableMeta, bool) {
		tbl, ok := db.tables[strings.ToLower(table)]
		if !ok {
			return nil, false
		}
		return tbl.Meta, true
	}
	now := db.now() // indexable keys do not depend on it
	err := decodeGroup(db.reg, payload, schema, func(rec *record) error {
		if rec.kind != recPut && rec.kind != recDelete {
			publish()
			return db.applyDDL(rec)
		}
		w, err := writer(rec.table)
		if err != nil {
			return err
		}
		if rec.kind == recDelete {
			old, err := w.Delete(rec.id)
			if err != nil {
				return fmt.Errorf("%w: %v", errBadGroup, err)
			}
			w.UnindexRow(rec.id, old, now)
			return nil
		}
		if old, ok := w.Put(rec.id, rec.row); ok {
			w.UnindexRow(rec.id, old, now)
		}
		return w.IndexRow(rec.id, rec.row, now)
	})
	if err == nil {
		publish() // a failed group's writers are dropped
	}
	return err
}

// applyDDL replays one DDL record through the DDL code path and
// publishes at once: later records of its group may write into the
// table it creates.
func (db *Database) applyDDL(rec *record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.gen.Add(1)
	s := &Session{db: db}
	var err error
	switch rec.kind {
	case recCreateTable:
		_, err = s.createTable(rec.create)
	case recDropTable:
		_, err = s.dropTable(&ast.DropTable{Name: rec.table})
	case recCreateIndex:
		_, err = s.createIndex(&ast.CreateIndex{Name: rec.index.Name, Table: rec.index.Table,
			Column: rec.index.Column, Period: rec.index.Kind == catalog.PeriodIndex})
	case recDropIndex:
		_, err = s.dropIndex(&ast.DropIndex{Name: rec.index.Name})
	}
	if err == nil {
		db.commitMu.Lock()
		db.publish(s.pending)
		db.commitMu.Unlock()
	}
	return err
}
