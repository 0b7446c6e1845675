package exec_test

// Bounded top-K sort tests. When a query has ORDER BY with a LIMIT, the
// sort runs as a k-bounded heap instead of materialising and sorting
// every row; differential_test.go checks the heap against the full
// stable sort.

import (
	"errors"
	"math/rand"
	"testing"

	"tip/internal/exec"
)

// TestTopKEngages proves the heap path runs: the planner counter
// advances exactly when ORDER BY+LIMIT is bounded, and never for
// DISTINCT or unlimited sorts.
func TestTopKEngages(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE e (a INT, b INT)`)
	mustExec(t, s, `INSERT INTO e VALUES (3, 1), (1, 2), (2, 3), (1, 4)`)

	topk := func() float64 { return counter(s, "planner.sort.topk") }

	before := topk()
	mustExec(t, s, `SELECT a FROM e ORDER BY a LIMIT 2`)
	if got := topk(); got != before+1 {
		t.Errorf("bounded sort did not engage top-k (counter %v -> %v)", before, got)
	}
	before = topk()
	mustExec(t, s, `SELECT a FROM e ORDER BY a`)                  // no limit
	mustExec(t, s, `SELECT DISTINCT a FROM e ORDER BY a LIMIT 2`) // distinct follows the sort
	mustExec(t, s, `SELECT a FROM e ORDER BY a LIMIT 100000`)     // k over the heap bound
	if got := topk(); got != before {
		t.Errorf("top-k engaged where it must not (counter %v -> %v)", before, got)
	}
}

// TestTopKBoundedMemory: with a budget that materialising every
// projected row for a full sort would blow, the same ORDER BY under
// LIMIT k succeeds, because evicted heap entries recycle their row and
// key storage — only ~k projected rows are ever resident.
func TestTopKBoundedMemory(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	s := newDB(t)
	seedParity(t, s, r, 2000)

	// Six projected values + three sort keys per row: the full sort
	// materialises ~1.2MB for 2000 rows and busts a 512KiB budget...
	s.SetDefaultStmtMem(512 << 10)
	wide := `SELECT k, v, at, k + v, v * 2, k * 3 FROM p ORDER BY at, k, v`
	_, err := s.Exec(wide, nil)
	if err == nil {
		t.Fatal("full wide sort fit in 512KiB?")
	}
	if !errors.Is(err, exec.ErrMemory) {
		t.Fatalf("want ErrMemory, got %v", err)
	}
	// ...while the bounded heap holds the budget with the same input.
	res, err := s.Exec(wide+` LIMIT 5`, nil)
	if err != nil {
		t.Fatalf("top-k under budget: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.Rows))
	}
	if peak := s.MemPeak(); peak <= 0 || peak > 256<<10 {
		t.Errorf("top-k peak = %d bytes, want (0, 256KiB]", peak)
	}
}
