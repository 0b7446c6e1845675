package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tip/internal/catalog"
	"tip/internal/exec"
)

// Database snapshot persistence. A snapshot is "TIPDB3\n", the
// uvarint durability epoch (WAL frames from an older epoch are skipped
// at replay), then one commit group (effects.go) that rebuilds the
// database from empty: per table a create-table record and a put per
// row at its row id, then a create-index record per index. Sharing the
// log's codec, a snapshot keeps row ids as the log names them. Loading
// requires the same blades to be registered so type names resolve.
//
// Checkpoint writes a durable database directory's snapshot and Open
// loads it. Snapshots are written atomically: the bytes go to
// path+".tmp", the temp file is fsynced, renamed over path, and the
// parent directory is fsynced — a crash at any point leaves either the
// old snapshot or the new one, never a torn file.

const snapshotMagic = "TIPDB3\n"

// ErrBadSnapshot reports a malformed snapshot file.
var ErrBadSnapshot = errors.New("engine: bad snapshot")

// writeFileAtomic writes data to path so that a crash leaves either the
// old file or the new one: write to a temp file, fsync it, rename over
// path, fsync the parent directory (the rename itself is not durable
// until the directory entry is).
func writeFileAtomic(path string, data []byte) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
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
	for _, name := range names {
		tbl := db.tables[strings.ToLower(name)]
		buf = appendCreateTable(buf, tbl.Meta)
		tbl.Snapshot().Rows.Scan(func(id int, r exec.Row) bool {
			buf = appendPut(buf, tbl.Meta.Name, id, r)
			return true
		})
	}
	for _, name := range names {
		for _, im := range db.cat.TableIndexes(name) {
			buf = appendCreateIndex(buf, im)
		}
	}
	return buf
}

// loadSnapshot decodes snapshot bytes into staging state and, only if
// they decode completely, swaps them in for the current catalog and
// tables wholesale; it returns the snapshot's durability epoch. Open
// loads into a fresh database, a replica re-bootstrap into a live one
// (LoadReplicaSnapshot). A failed load leaves the database as it was.
func (db *Database) loadSnapshot(data []byte) (uint64, error) {
	if db.wal != nil {
		return 0, fmt.Errorf("engine: cannot replace the contents of a database with a log")
	}
	epoch, group, err := splitSnapshot(data)
	if err != nil {
		return 0, err
	}
	// Apply into a staging shadow of this database: same registry and
	// managers, fresh catalog/tables/locks. Nothing is installed until
	// the whole snapshot applied.
	stage := &Database{
		reg:    db.reg,
		cat:    catalog.New(),
		tables: make(map[string]*exec.Table),
		locks:  make(map[string]*tableLock),
		tm:     db.tm,
		obs:    db.obs,
		hz:     newHorizonTracker(),
	}
	if err := stage.applyGroup(group); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.cat = stage.cat
	db.tables = stage.tables
	db.locks = stage.locks
	// Writers and index builds bumped the staging version clock; carry
	// it over so post-load writer sequences stay above every installed
	// version. The live clock may already be higher — never move it
	// backwards, or new writes would stamp versions old snapshots
	// consider reclaimed.
	if sv := stage.vclock.Load(); sv > db.vclock.Load() {
		db.vclock.Store(sv)
	}
	// Schema changed out from under every cached plan.
	db.gen.Add(1)
	return epoch, nil
}

// splitSnapshot checks a snapshot's header and returns its epoch and
// its group.
func splitSnapshot(data []byte) (uint64, []byte, error) {
	if bytes.HasPrefix(data, []byte("TIPDB2\n")) { // refused, not renumbered
		return 0, nil, fmt.Errorf("%w: format TIPDB2 does not keep row ids; this version reads TIPDB3", ErrBadSnapshot)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		return 0, nil, fmt.Errorf("%w: magic", ErrBadSnapshot)
	}
	data = data[len(snapshotMagic):]
	epoch, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: epoch", ErrBadSnapshot)
	}
	return epoch, data[n:], nil
}
