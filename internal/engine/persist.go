package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"tip/internal/catalog"
	"tip/internal/exec"
	"tip/internal/sql/ast"
	"tip/internal/storage"
	"tip/internal/types"
)

// Database snapshot persistence. The format is a self-describing binary
// file: magic, the durability epoch, the catalog (tables, columns with
// type names, indexes), then per table the row count and rows encoded
// with the value codec (UDT payloads through their blade Encode hooks).
// Loading requires the same blades to be registered so type names
// resolve.
//
// Layout (version 2):
//
//	"TIPDB2\n"
//	uvarint epoch — durability epoch; WAL frames from an older epoch
//	                are skipped at replay (see wal.go)
//	uvarint tableCount
//	  table: str name, uvarint colCount,
//	         col: str name, str typeName, byte notNull
//	         uvarint rowCount, rows (schema-directed values)
//	uvarint indexCount
//	  index: str name, str table, str column, byte kind
//
// Snapshots are written atomically: the bytes go to path+".tmp", the
// temp file is fsynced, renamed over path, and the parent directory is
// fsynced — a crash at any point leaves either the old snapshot or the
// new one, never a torn file.

const snapshotMagic = "TIPDB2\n"

// ErrBadSnapshot reports a malformed snapshot file.
var ErrBadSnapshot = errors.New("engine: bad snapshot")

// Save writes a snapshot of the database to path (atomically, fsynced),
// stamped with the current durability epoch. It does not bump the
// epoch: a standalone Save does not truncate the WAL, so recovery from
// a Save-written snapshot plus a live log still replays the log in
// full — use Checkpoint for WAL-coordinated snapshots.
func (db *Database) Save(path string) error {
	db.mu.RLock()
	epoch := db.epoch
	db.mu.RUnlock()
	return db.save(path, epoch)
}

// save snapshots the database under the given epoch stamp.
func (db *Database) save(path string, epoch uint64) error {
	// Each table's latest published version is immutable, so encoding
	// needs no table locks: one atomic load per table yields a
	// per-table-consistent snapshot even while writers run. (Checkpoint
	// additionally quiesces writers via db.ckpt for WAL-epoch
	// coordination; a plain Save does not need to.)
	db.mu.RLock()
	buf := db.encodeSnapshot(epoch)
	db.mu.RUnlock()
	if err := writeFileAtomic(path, buf); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	return nil
}

// writeFileAtomic writes data to path so that a crash leaves either the
// old file or the new one: write to a temp file, fsync it, rename over
// path, fsync the parent directory (the rename itself is not durable
// until the directory entry is).
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (db *Database) encodeSnapshot(epoch uint64) []byte {
	buf := []byte(snapshotMagic)
	buf = binary.AppendUvarint(buf, epoch)
	names := db.cat.TableNames()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		tbl := db.tables[strings.ToLower(name)]
		buf = appendString(buf, tbl.Meta.Name)
		buf = binary.AppendUvarint(buf, uint64(len(tbl.Meta.Columns)))
		for _, c := range tbl.Meta.Columns {
			buf = appendString(buf, c.Name)
			buf = appendString(buf, c.Type.Name)
			if c.NotNull {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		rows := tbl.Snapshot().Rows
		buf = binary.AppendUvarint(buf, uint64(rows.Len()))
		rows.Scan(func(_ int, r exec.Row) bool {
			for _, v := range r {
				buf = v.AppendBinary(buf)
			}
			return true
		})
	}
	var indexes []*catalog.IndexMeta
	for _, name := range names {
		indexes = append(indexes, db.cat.TableIndexes(name)...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(indexes)))
	for _, im := range indexes {
		buf = appendString(buf, im.Name)
		buf = appendString(buf, im.Table)
		buf = appendString(buf, im.Column)
		buf = append(buf, byte(im.Kind))
	}
	return buf
}

// Load reads a snapshot from path into a fresh database state. The
// database must be empty (freshly constructed with the right blades).
// The snapshot is decoded into staging state and installed only if it
// decodes completely, so a failed Load leaves the database empty and
// retryable.
func (db *Database) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("engine: load: %w", err)
	}
	return db.loadSnapshot(data, false)
}

// loadSnapshot decodes snapshot bytes into staging state and installs
// it. With replace unset the database must be empty (recovery); with
// replace set the current catalog and tables are swapped out wholesale
// (replica re-bootstrap — see LoadReplicaSnapshot).
func (db *Database) loadSnapshot(data []byte, replace bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !replace && len(db.tables) != 0 {
		return fmt.Errorf("engine: load into non-empty database")
	}
	if replace && db.wal != nil {
		return fmt.Errorf("engine: cannot replace contents while the WAL is enabled")
	}
	// Decode into a staging shadow of this database: same registry and
	// managers, fresh catalog/tables/locks. Nothing is installed until
	// the whole snapshot decoded.
	stage := &Database{
		reg:    db.reg,
		cat:    catalog.New(),
		tables: make(map[string]*exec.Table),
		locks:  make(map[string]*sync.Mutex),
		tm:     db.tm,
		obs:    db.obs,
	}
	epoch, err := stage.decodeSnapshot(data)
	if err != nil {
		return err
	}
	db.cat = stage.cat
	db.tables = stage.tables
	db.locks = stage.locks
	db.epoch = epoch
	// Index rebuilds bumped the staging version clock; carry it over so
	// post-load writer sequences stay above every installed version.
	// When replacing, the live clock may already be higher — never move
	// it backwards, or new writes would stamp versions old snapshots
	// consider reclaimed.
	if sv := stage.vclock.Load(); sv > db.vclock.Load() {
		db.vclock.Store(sv)
	}
	if replace {
		// Schema changed out from under every cached plan.
		db.gen.Add(1)
	}
	return nil
}

// decodeSnapshot populates the (empty) database from snapshot bytes and
// returns the snapshot's durability epoch.
func (db *Database) decodeSnapshot(data []byte) (uint64, error) {
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return 0, fmt.Errorf("%w: magic", ErrBadSnapshot)
	}
	epoch, data, err := readUvarint(data[len(snapshotMagic):])
	if err != nil {
		return 0, err
	}
	tableCount, data, err := readUvarint(data)
	if err != nil {
		return 0, err
	}
	for range tableCount {
		var name string
		if name, data, err = readString(data); err != nil {
			return 0, err
		}
		colCount, rest, err := readUvarint(data)
		if err != nil {
			return 0, err
		}
		data = rest
		cols := make([]catalog.Column, colCount)
		for i := range cols {
			var cname, tname string
			if cname, data, err = readString(data); err != nil {
				return 0, err
			}
			if tname, data, err = readString(data); err != nil {
				return 0, err
			}
			if len(data) < 1 {
				return 0, fmt.Errorf("%w: truncated column", ErrBadSnapshot)
			}
			notNull := data[0] == 1
			data = data[1:]
			t, ok := db.reg.LookupType(tname)
			if !ok {
				return 0, fmt.Errorf("%w: unknown type %s (blade not registered?)", ErrBadSnapshot, tname)
			}
			cols[i] = catalog.Column{Name: cname, Type: t, NotNull: notNull}
		}
		meta, err := catalog.NewTableMeta(name, cols)
		if err != nil {
			return 0, err
		}
		if err := db.cat.CreateTable(meta); err != nil {
			return 0, err
		}
		tbl := exec.NewTable(meta)
		db.tables[strings.ToLower(name)] = tbl
		db.locks[strings.ToLower(name)] = &sync.Mutex{}
		rowCount, rest, err := readUvarint(data)
		if err != nil {
			return 0, err
		}
		data = rest
		b := storage.NewVersion().NewBuilder(0, 0)
		for range rowCount {
			row := make(exec.Row, len(cols))
			for i, c := range cols {
				v, rest, err := types.DecodeValue(c.Type, data)
				if err != nil {
					return 0, fmt.Errorf("%w: table %s: %v", ErrBadSnapshot, name, err)
				}
				row[i] = v
				data = rest
			}
			b.Insert(row)
		}
		tbl.Install(&exec.TableVersion{Rows: b.Commit()})
	}
	indexCount, data, err := readUvarint(data)
	if err != nil {
		return 0, err
	}
	s := &Session{db: db}
	for range indexCount {
		var iname, itable, icol string
		if iname, data, err = readString(data); err != nil {
			return 0, err
		}
		if itable, data, err = readString(data); err != nil {
			return 0, err
		}
		if icol, data, err = readString(data); err != nil {
			return 0, err
		}
		if len(data) < 1 {
			return 0, fmt.Errorf("%w: truncated index", ErrBadSnapshot)
		}
		kind := catalog.IndexKind(data[0])
		data = data[1:]
		// Rebuild through the regular CREATE INDEX path (the session
		// helper builds the in-memory structures over loaded rows).
		if _, err := s.createIndex(&ast.CreateIndex{
			Name: iname, Table: itable, Column: icol, Period: kind == catalog.PeriodIndex,
		}); err != nil {
			return 0, err
		}
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data))
	}
	return epoch, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: varint", ErrBadSnapshot)
	}
	return v, data[n:], nil
}

func readString(data []byte) (string, []byte, error) {
	n, rest, err := readUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("%w: string length", ErrBadSnapshot)
	}
	return string(rest[:n]), rest[n:], nil
}
