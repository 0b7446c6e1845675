package bench

import (
	"strings"
	"testing"
)

// Small smoke tests: each experiment must run and produce a well-formed
// table with the expected shape properties. Sizes are tiny so the suite
// stays fast; cmd/tipbench runs the real sweeps.

func TestE1Shape(t *testing.T) {
	tab := E1([]int{16, 64, 256})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Header) {
			t.Errorf("ragged row %v", r)
		}
	}
}

func TestE2AgreesAndRuns(t *testing.T) {
	tab := E2([]int{40, 80}, 80) // verification panics on disagreement
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Both sizes within layeredMax: slowdown column populated.
	for _, r := range tab.Rows {
		if r[len(r)-1] == "-" {
			t.Errorf("slowdown missing: %v", r)
		}
	}
}

func TestE3Runs(t *testing.T) {
	tab := E3([]int{40}, 40)
	if len(tab.Rows) != 1 || tab.Rows[0][4] == "-" {
		t.Fatalf("rows = %v", tab.Rows)
	}
}

func TestE4MonotoneCounts(t *testing.T) {
	tab := E4()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The 2005 row must differ from the 1997 row: NOW changes results.
	if tab.Rows[0][1] == tab.Rows[4][1] && tab.Rows[0][2] == tab.Rows[4][2] {
		t.Error("results did not change with NOW")
	}
}

func TestE5LayeredIsBigger(t *testing.T) {
	tab := E5()
	// Rows come in TIP/layered pairs; layered chars must exceed TIP's.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		tip, lay := tab.Rows[i], tab.Rows[i+1]
		if tip[1] != "TIP" || lay[1] != "layered" {
			t.Fatalf("unexpected ordering at %d: %v / %v", i, tip, lay)
		}
		if tip[0] == "window selection" {
			continue // both are simple for plain windows
		}
		if lay[2] <= tip[2] && len(lay[2]) <= len(tip[2]) {
			t.Errorf("%s: layered chars %s not larger than TIP %s", tip[0], lay[2], tip[2])
		}
	}
}

func TestE6IndexAgrees(t *testing.T) {
	tab := E6(300, []int{7, 120}) // panics internally on disagreement
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7(60)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != 3 {
			t.Errorf("ragged row %v", r)
		}
	}
}

func TestE8Agrees(t *testing.T) {
	tab := E8([]int{50}) // panics internally on disagreement
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("e4"); err != nil {
		t.Errorf("ByID(e4): %v", err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown id should fail")
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "== X: demo ==") || !strings.Contains(out, "note: n") {
		t.Errorf("Fprint = %q", out)
	}
}
