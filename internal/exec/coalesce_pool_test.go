package exec_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tip/internal/engine"
	"tip/internal/exec"
)

// TestCoalescePoolShared runs the coalesce operator on two databases at
// once, so their executions take runs from, and return them to, the one
// process-wide pool concurrently: the fused and the Element Q4, a join
// of two grouped derived tables, and a grouped query whose HAVING runs a
// second coalesce while the first one's group rows are being read. Each
// answer must equal the one the database gave before the other started,
// and each database's memory account must read zero after every
// statement (each has one session, so its account is that session's).
// Then, with the pool warm, a statement budget of half the fused Q4's
// peak must still abort it with ErrMemory. Run it under -race.
func TestCoalescePoolShared(t *testing.T) {
	const rounds = 200
	queries := []string{
		`SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient`,
		`SELECT patient, group_union(valid), COUNT(*) FROM rx GROUP BY patient`,
		`SELECT a.drug, a.l, b.c, b.e FROM
			(SELECT drug, length(group_union(valid)) AS l FROM rx GROUP BY drug) a,
			(SELECT drug, group_union(valid) AS e, COUNT(*) AS c FROM rx WHERE dosage < 50 GROUP BY drug) b
			WHERE a.drug = b.drug ORDER BY a.drug`,
		`SELECT drug, length(group_union(valid)) FROM rx GROUP BY drug
			HAVING COUNT(*) * 2 > (SELECT COUNT(*) FROM (SELECT patient, group_union(valid) FROM rx GROUP BY patient) g)`,
	}
	type fixture struct {
		db   *engine.Database
		s    *engine.Session
		want [][][]string
	}
	var fxs []*fixture
	for _, n := range []int{400, 640} {
		s := newDB(t)
		seedAllocRx(t, s, n)
		fx := &fixture{db: s.Database(), s: s}
		for _, q := range queries {
			fx.want = append(fx.want, grid(mustExec(t, s, q)))
		}
		fxs = append(fxs, fx)
	}
	var wg sync.WaitGroup
	for _, fx := range fxs {
		wg.Add(1)
		go func(fx *fixture) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i, q := range queries {
					res, err := fx.s.Exec(q, nil)
					if err != nil {
						t.Errorf("round %d: %s: %v", round, q, err)
						return
					}
					if got := grid(res); fmt.Sprint(got) != fmt.Sprint(fx.want[i]) {
						t.Errorf("round %d: %s: the answer differs from the serial one", round, q)
						return
					}
					if used := fx.db.MemAccount().Used(); used != 0 {
						t.Errorf("round %d: %s: the memory account holds %d bytes after the statement", round, q, used)
						return
					}
				}
			}
		}(fx)
	}
	wg.Wait()
	for _, fx := range fxs {
		mustExec(t, fx.s, queries[0])
		peak := fx.s.MemPeak()
		mustExec(t, fx.s, fmt.Sprintf(`SET STATEMENT_MEMORY = %d`, peak/2))
		if _, err := fx.s.Exec(queries[0], nil); !errors.Is(err, exec.ErrMemory) {
			t.Errorf("Q4 under half its %d-byte peak: err = %v, want ErrMemory", peak, err)
		}
		if used := fx.db.MemAccount().Used(); used != 0 {
			t.Errorf("the memory account holds %d bytes after the aborted statement", used)
		}
		mustExec(t, fx.s, `SET STATEMENT_MEMORY = DEFAULT`)
		if got := grid(mustExec(t, fx.s, queries[0])); fmt.Sprint(got) != fmt.Sprint(fx.want[0]) {
			t.Errorf("%s after the abort: the answer differs from the serial one", queries[0])
		}
	}
}
