package engine

// Fuzz targets for the commit-group codec, beside the SQL-level fuzz
// sweep in fuzz_test.go: log frames and snapshot frames decode through
// the same frame and record decoders. Arbitrary bytes must decode to an error or to
// records — never a panic or an unbounded allocation — because the
// decoder's input is whatever a crash left on disk.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"tip/internal/blade"
	"tip/internal/catalog"
	"tip/internal/core"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

// fuzzSchema is the catalog the fuzzed log groups decode against:
// t (a INT, v Element) and u (s VARCHAR).
func fuzzSchema(f *testing.F) (*blade.Registry, func(string) (*catalog.TableMeta, bool), exec.Row, exec.Row) {
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		f.Fatal(err)
	}
	elem, _ := reg.LookupType("Element")
	tables := map[string]*catalog.TableMeta{}
	for name, cols := range map[string][]catalog.Column{
		"t": {{Name: "a", Type: types.TInt}, {Name: "v", Type: elem}},
		"u": {{Name: "s", Type: types.TString, NotNull: true}},
	} {
		m, err := catalog.NewTableMeta(name, cols)
		if err != nil {
			f.Fatal(err)
		}
		tables[name] = m
	}
	schema := func(name string) (*catalog.TableMeta, bool) {
		m, ok := tables[name]
		return m, ok
	}
	now := temporal.MustDate(1999, 11, 12)
	e := temporal.MustPeriod(now-30, now).Element()
	return reg, schema, exec.Row{types.NewInt(7), types.NewUDT(elem, e)}, exec.Row{types.NewString("x")}
}

func FuzzWALFrame(f *testing.F) {
	reg, schema, tRow, uRow := fuzzSchema(f)
	meta, _ := schema("t")
	groups := [][]byte{
		appendPut(nil, "t", 0, tRow),
		appendPut(appendPut(appendPut(nil, "t", 3, tRow), "u", 0, uRow), "t", 300, exec.Row{types.NewNull(types.TInt), types.NewNull(meta.Columns[1].Type)}),
		appendDelete(nil, "t", 3),
		appendRecord(appendCreateIndex(appendRecord(appendCreateTable(nil, meta), recDropTable, "u"),
			&catalog.IndexMeta{Name: "tv", Table: "t", Column: "v", Kind: catalog.PeriodIndex}), recDropIndex, "tv"),
		nil, // an empty group
	}
	// Seed with frame bodies (decodeWALFrame's input excludes the
	// length prefix the replay loop consumes).
	for i, g := range groups {
		fr := appendWALFrame(nil, uint64(i+1), g)
		_, n := binary.Uvarint(fr)
		f.Add(fr[n:])
		f.Add(g)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})

	none := func(*record) error { return nil }
	f.Fuzz(func(t *testing.T, data []byte) {
		// The fuzz input is a frame body (after the length prefix, which
		// the replay loop already bounds-checks) — and, since a random
		// body rarely checksums, also a group on its own.
		_ = decodeGroup(reg, data, schema, none)
		if fr, err := decodeWALFrame(data); err == nil {
			_ = decodeGroup(reg, fr.payload, schema, none)
		}
	})
}

// FuzzSnapshot feeds snapshot files through the loader Open uses.
// Seeds: an empty database, a multi-frame snapshot cut under a lowered
// frame bound, the same missing its end frame, and the old unframed
// formats.
func FuzzSnapshot(f *testing.F) {
	reg := testRegistry(f)
	empty := snapshotBytes(f, New(reg))
	defer func(n int) { snapshotFrameBytes = n }(snapshotFrameBytes)
	snapshotFrameBytes = 64
	db := New(reg)
	s := db.NewSession()
	for _, q := range []string{
		`CREATE TABLE t (a INT, v Element)`,
		`INSERT INTO t VALUES (1, '{[1999-01-01, NOW]}'), (2, NULL), (3, '{[1999-02-01, 1999-03-01]}')`,
		`DELETE FROM t WHERE a = 2`,
		`CREATE TABLE u (s VARCHAR(20) NOT NULL)`,
		`INSERT INTO u VALUES ('x'), ('y')`,
		`CREATE INDEX tv ON t (v) USING PERIOD`,
		`CREATE INDEX us ON u (s)`,
	} {
		if _, err := s.Exec(q, nil); err != nil {
			f.Fatal(err)
		}
	}
	multi := snapshotBytes(f, db)
	frames := splitFrames(f, multi)
	if len(frames) < 4 {
		f.Fatalf("seed snapshot has %d frames, want a multi-frame one", len(frames))
	}
	f.Add(empty)
	f.Add(multi)
	f.Add(multi[:len(multi)-len(frames[len(frames)-1])]) // no end frame
	old := binary.AppendUvarint([]byte("TIPDB3\n"), 2)
	meta := db.tables["t"].Meta
	f.Add(appendPut(appendCreateTable(old, meta), "t", 0, exec.Row{types.NewInt(1), types.NewNull(meta.Columns[1].Type)}))
	f.Add([]byte("TIPDB2\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = New(reg).readSnapshot(bytes.NewReader(data))
	})
}
