package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tip/internal/exec"
	"tip/internal/index"
	"tip/internal/temporal"
	"tip/internal/types"
)

// TestPeriodIndexMarksOnlyLiveRows is the invariant COUNT(*) over a
// period search rests on: a version's period index marks only ids live
// in that version's rows, so counting its answer needs no row. A seeded
// run of INSERTs, UPDATEs of the indexed column and of another, DELETEs
// (freed slots are reused at once), transactions rolled back and
// committed, and statements that fail part-way is checked after every
// statement against the published version: every id a search over the
// whole time line marks is live, and random probes mark exactly the live
// rows whose value overlaps them, as many as Hits.Drain counts. Every
// version published along the way is checked again at the end, after
// later builders appended to the shared logs and compacted them, and so
// is the version the log replays into (applyGroup) on reopening.
func TestPeriodIndexMarksOnlyLiveRows(t *testing.T) {
	db := openEngine(t, t.TempDir(), nil)
	s := db.NewSession()
	execSQL(t, s, `CREATE TABLE t (k INT, n INT, valid Element)`)
	execSQL(t, s, `CREATE INDEX t_valid ON t (valid) USING PERIOD`)
	elemType, ok := db.reg.LookupType("Element")
	if !ok {
		t.Fatal("no Element type")
	}
	r := rand.New(rand.NewSource(41))
	const d = 86400
	base := temporal.MustDate(1999, 1, 1)
	element := func() temporal.Element {
		ps := make([]temporal.Period, r.Intn(3)) // sometimes empty
		for i := range ps {
			lo := base + temporal.Chronon(r.Intn(700)*d)
			switch r.Intn(4) {
			case 0: // open: [lo, NOW], empty while NOW is before lo
				ps[i] = temporal.Period{Start: temporal.AbsInstant(lo), End: temporal.Now}
			default:
				ps[i] = temporal.MustPeriod(lo, lo+temporal.Chronon(r.Intn(30)*d))
			}
		}
		return temporal.MustElement(ps...)
	}
	value := func() types.Value {
		if r.Intn(10) == 0 {
			return types.NewNull(elemType)
		}
		return types.NewUDT(elemType, element())
	}
	exec1 := func(sql string, params map[string]types.Value) error {
		_, err := s.Exec(sql, params)
		return err
	}
	must := func(sql string, params map[string]types.Value) {
		t.Helper()
		if err := exec1(sql, params); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	nextK := 0
	// step runs one random statement; inTxn keeps it from opening
	// another transaction.
	var step func(inTxn bool)
	step = func(inTxn bool) {
		kp := func() map[string]types.Value {
			return map[string]types.Value{"k": types.NewInt(int64(r.Intn(nextK + 1))), "v": value()}
		}
		switch op := r.Intn(12); {
		case op < 3:
			rows := 1 + r.Intn(3)
			for i := 0; i < rows; i++ {
				must(`INSERT INTO t VALUES (:k, 0, :v)`, map[string]types.Value{"k": types.NewInt(int64(nextK)), "v": value()})
				nextK++
			}
		case op < 5:
			must(`UPDATE t SET valid = :v WHERE k = :k`, kp())
		case op == 5:
			must(`UPDATE t SET valid = :v WHERE k BETWEEN :k AND :k + 4`, kp())
		case op == 6:
			must(`UPDATE t SET n = n + 1 WHERE k < :k`, kp())
		case op == 7:
			must(`DELETE FROM t WHERE k = :k`, kp())
		case op == 8:
			must(`DELETE FROM t WHERE k BETWEEN :k AND :k + 2`, kp())
		case op == 9:
			// Fails at its second row, after the first is indexed.
			p := map[string]types.Value{"k": types.NewInt(int64(nextK)), "v": value()}
			if err := exec1(`INSERT INTO t VALUES (:k, 0, :v), (:k, 0, 'not an element')`, p); err == nil {
				t.Fatal("an INSERT of a bad element succeeded")
			}
		case op == 10:
			// Fails on the first matching row, if any.
			_ = exec1(`UPDATE t SET valid = 'not an element' WHERE k BETWEEN :k AND :k + 3`, kp())
		case inTxn:
		default:
			must(`BEGIN`, nil)
			for i := 1 + r.Intn(4); i > 0; i-- {
				step(true)
			}
			if r.Intn(2) == 0 {
				must(`ROLLBACK`, nil)
			} else {
				must(`COMMIT`, nil)
			}
		}
	}

	now := tortureNow
	check := func(v *exec.TableVersion, when string) {
		t.Helper()
		ix := v.Indexes[2].Period
		rows := map[int]temporal.Element{}
		v.Rows.Scan(func(id int, row exec.Row) bool {
			if !row[2].Null {
				rows[id] = row[2].Obj().(temporal.Element)
			}
			return true
		})
		var h index.Hits
		ix.Overlapping(&h, []temporal.Interval{{Lo: temporal.MinChronon, Hi: temporal.MaxChronon}}, now)
		for id, ok := h.Next(); ok; id, ok = h.Next() {
			if _, live := v.Rows.Get(id); !live {
				t.Fatalf("%s: the period index marks id %d, which is not live", when, id)
			}
		}
		for trial := 0; trial < 8; trial++ {
			probe := element()
			ivs := probe.AppendBound(nil, now)
			var want []int
			for id, e := range rows {
				if e.Overlaps(probe, now) {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			ix.Overlapping(&h, ivs, now)
			var got []int
			for id, ok := h.Next(); ok; id, ok = h.Next() {
				got = append(got, id)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: probe %s marks %v, the live rows that overlap it are %v", when, probe, got, want)
			}
			ix.Overlapping(&h, ivs, now)
			if n := h.Drain(); n != len(want) {
				t.Fatalf("%s: probe %s: Drain counts %d, %d live rows overlap it", when, probe, n, len(want))
			}
		}
	}

	var versions []*exec.TableVersion
	for i := 0; i < 400; i++ {
		step(false)
		v := db.published("t")
		if len(versions) == 0 || versions[len(versions)-1] != v {
			versions = append(versions, v)
		}
		check(v, fmt.Sprintf("after statement %d", i))
	}
	for i, v := range versions {
		check(v, fmt.Sprintf("committed version %d of %d, re-checked", i, len(versions)))
	}
	if len(versions) < 100 {
		t.Fatalf("only %d versions published; the generator is broken", len(versions))
	}

	last := versions[len(versions)-1]
	rec := recovered(t, db)
	got := rec.db.published("t")
	check(got, "the replayed version")
	rowsOf := func(v *exec.TableVersion) map[int]string {
		m := map[int]string{}
		v.Rows.Scan(func(id int, row exec.Row) bool {
			m[id] = fmt.Sprint(row[0].Format(), row[1].Format(), row[2].Format())
			return true
		})
		return m
	}
	if want, have := rowsOf(last), rowsOf(got); fmt.Sprint(want) != fmt.Sprint(have) {
		t.Fatalf("replay holds %v, the live database %v", have, want)
	}
}
