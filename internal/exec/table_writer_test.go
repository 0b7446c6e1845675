package exec_test

import (
	"testing"

	"tip/internal/catalog"
	"tip/internal/exec"
	"tip/internal/index"
	"tip/internal/types"
)

// TestTableWriterDiscardKeepsPostings drives a failing multi-row UPDATE
// by hand: the writer kills and re-adds row 0's hash posting, then the
// statement is discarded. The horizon is seq-1 — the highest value the
// engine ever passes (nothing registered below the writer) — so the
// re-add's opportunistic GC must leave the posting this statement
// itself killed for Discard to revive; otherwise the surviving row
// silently vanishes from equality lookups.
func TestTableWriterDiscardKeepsPostings(t *testing.T) {
	meta, err := catalog.NewTableMeta("t", []catalog.Column{
		{Name: "k", Type: types.TString}, {Name: "v", Type: types.TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl := exec.NewTable(meta)
	w := tbl.BeginWrite(1, 0)
	w.Insert(exec.Row{types.NewString("a"), types.NewInt(1)})
	w.Insert(exec.Row{types.NewString("a"), types.NewInt(0)})
	w.Commit()

	// CREATE INDEX: postings born at sequence zero, installed as a new
	// version over the same rows.
	base := tbl.Snapshot()
	ix := index.NewHash()
	key := types.NewString("a").Key(testNow)
	ix.Add(key, 0, 0, 0)
	ix.Add(key, 1, 0, 0)
	tbl.Install(&exec.TableVersion{Seq: 2, Rows: base.Rows, Hash: map[int]*index.Hash{0: ix}, Periods: base.Periods})

	const seq = 3
	w = tbl.BeginWrite(seq, seq-1)
	old, _ := w.Get(0)
	row := exec.Row{old[0], types.NewInt(10)}
	w.UnindexRow(0, old, testNow)
	if _, err := w.Update(0, row); err != nil {
		t.Fatal(err)
	}
	if err := w.IndexRow(0, row, testNow); err != nil {
		t.Fatal(err)
	}
	w.Discard() // row 1 "divided by zero"

	if ids := ix.Lookup(key, seq, nil); len(ids) != 2 {
		t.Fatalf("equality lookup after discarded UPDATE = rows %v, want both", ids)
	}
}
