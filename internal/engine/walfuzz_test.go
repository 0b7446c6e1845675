package engine

// Fuzz targets for the commit-group codec, beside the SQL-level fuzz
// sweep in fuzz_test.go: log frames and snapshots decode through the
// same record decoder. Arbitrary bytes must decode to an error or to
// records — never a panic or an unbounded allocation — because the
// decoder's input is whatever a crash left on disk.

import (
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
		fr := appendWALFrame(nil, uint64(i), uint64(i+1), g)
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

func FuzzSnapshot(f *testing.F) {
	reg, schema, tRow, _ := fuzzSchema(f)
	meta, _ := schema("t")
	header := binary.AppendUvarint([]byte(snapshotMagic), 2)
	f.Add(header)
	f.Add(appendCreateIndex(appendPut(appendPut(appendCreateTable(header, meta), "t", 0, tRow), "t", 9, tRow),
		&catalog.IndexMeta{Name: "tv", Table: "t", Column: "v", Kind: catalog.PeriodIndex}))
	f.Add([]byte("TIPDB2\n"))
	f.Add([]byte{})

	none := func(string) (*catalog.TableMeta, bool) { return nil, false }
	f.Fuzz(func(t *testing.T, data []byte) {
		_, group, err := splitSnapshot(data)
		if err != nil {
			return
		}
		_ = decodeGroup(reg, group, none, func(*record) error { return nil })
	})
}
