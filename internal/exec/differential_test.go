package exec_test

// SQL-level differentials. Every query family with a specialised
// executor path is asked twice — once in a shape the specialised path
// takes, once in a shape it declines — and the two answers must match
// cell for cell, over randomized temporal data that includes NULL keys,
// NULL elements, adjacent-period boundaries (merge under coalescing)
// and duplicate rows (DISTINCT and set-op pressure):
//
//   - GROUP BY ... group_union runs the coalesce operator's hash
//     grouping; the grouping reference (group_ref_test.go) groups the
//     rows of the same query without GROUP BY in the test and folds
//     them itself.
//   - ORDER BY ... LIMIT k [OFFSET o] runs the bounded top-K heap; the
//     same query without the limit runs the full stable sort, which the
//     test slices itself.
//   - Joins stream their last level into the consumer: COUNT(*), a
//     GROUP BY over the joined table and SELECT * over the period-index,
//     hash, nested-loop and LEFT joins must all agree with a pair count
//     the test takes itself from the two tables' rows, and the coalesce
//     operator, which collects the streamed rows, must agree with the
//     grouping reference over the same join.
//
// Scans alias the immutable MVCC slab rows instead of copying them, so
// the battery ends by checking that no operator wrote through an alias:
// every table's rows must encode to the same bytes as before.
//
// A third fixture checks group_union and length against a chronon-set
// model kept in the test (coalesce_ref_test.go): the fused length path,
// the Element path, a blade aggregate's per-group state and join input, over
// NOW-relative, empty and NULL elements under two SET NOWs.
//
// A fourth fixture loads the same rows twice, bare and indexed, and asks
// both the same queries (indexDifferential): the period index answers
// overlaps exactly and the executor no longer re-checks it, including
// for stored [start, NOW] rows under two SET NOWs; index probes that find
// nothing return nothing; and join levels copy only the columns a later
// expression reads, so queries read the joined table's columns only in
// ORDER BY, HAVING, GROUP BY, CASE, aggregate arguments and LEFT JOIN ON.
// A column the copy leaves out is a zero Value there, which fails any
// operator that reads it.
//
// The same two fixtures then take the same UPDATEs and DELETEs
// (TestDMLDifferential): the bare table's WHERE scans every row, the
// indexed one's probes the hash or the period index, and both must
// report the same rows affected and hold the same rows afterwards.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

// seedParity loads n rows of (k INT, v INT, valid Element, at Chronon)
// where ~1/8 of keys and ~1/8 of elements are NULL, periods often share exact
// boundaries or are adjacent (hi+1 == next lo), and whole rows repeat.
func seedParity(t *testing.T, s *engine.Session, r *rand.Rand, n int) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE p (k INT, v INT, valid Element, at Chronon)`)
	base := temporal.MustDate(1998, 1, 1)
	day := int64(86400)
	rowLit := func() string {
		k := "NULL"
		if r.Intn(8) != 0 {
			k = fmt.Sprintf("%d", r.Intn(5))
		}
		valid := "NULL"
		at := "NULL"
		if r.Intn(8) != 0 {
			// Day-aligned periods: equal starts, equal ends and exact
			// adjacency (hi+1 chronon == next lo) all occur frequently.
			lo := base + temporal.Chronon(int64(r.Intn(40))*day)
			hi := lo + temporal.Chronon(int64(r.Intn(10))*day) + 86399
			valid = fmt.Sprintf("'[%s, %s]'", lo, hi)
			at = fmt.Sprintf("'%s'", lo) // duplicates order-by boundaries
		}
		return fmt.Sprintf("(%s, %d, %s, %s)", k, r.Intn(4), valid, at)
	}
	vals := make([]string, 0, n)
	for i := 0; i < n; i++ {
		lit := rowLit()
		vals = append(vals, lit)
		if r.Intn(4) == 0 { // duplicate rows exercise DISTINCT / set ops
			i++
			vals = append(vals, lit)
		}
	}
	mustExec(t, s, "INSERT INTO p VALUES "+strings.Join(vals, ", "))
}

// counter reads one engine metric.
func counter(s *engine.Session, name string) float64 {
	v, _ := s.Database().Metrics().Snapshot().Get(name)
	return v
}

// sameGrid fails unless got and want hold the same formatted cells.
func sameGrid(t *testing.T, sql string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d rows", sql, len(got), len(want))
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Fatalf("%s: row %d differs:\ngot:       %v\nreference: %v", sql, i, got[i], want[i])
		}
	}
}

// slabBytes encodes every row of the named tables with the storage
// codec.
func slabBytes(t *testing.T, s *engine.Session, tables ...string) []byte {
	t.Helper()
	var buf []byte
	for _, tbl := range tables {
		for _, row := range mustExec(t, s, "SELECT * FROM "+tbl).Rows {
			for _, v := range row {
				buf = v.AppendBinary(buf)
			}
		}
	}
	return buf
}

// coalesceDifferential compares the coalesce operator over table p
// with the grouping reference (group_ref_test.go). With indexed, p has a
// hash index on k, and the operator takes the groups of the queries
// grouping by k alone from it (planner.coalesce.index); every other
// query counts planner.coalesce.hash. The third query keeps the groups
// of more than ten rows, which the test keeps of the reference's.
func coalesceDifferential(t *testing.T, s *engine.Session, indexed bool) {
	t.Helper()
	union, count := refAgg{name: "group_union", arg: "valid"}, refAgg{name: "count", arg: "valid"}
	for _, c := range []struct {
		keys   []string
		aggs   []refAgg
		having string
	}{
		// NULL keys forming their own group, all-NULL element groups,
		// boundary merges, both COUNT forms.
		{[]string{"k"}, []refAgg{union, countStar, count}, ""},
		{[]string{"k", "v"}, []refAgg{{name: "length", arg: "valid"}}, ""},
		{[]string{"k"}, []refAgg{union, countStar}, " HAVING COUNT(*) > 10"},
	} {
		q := groupedSQL("p", c.keys, c.aggs) + c.having
		coalesced := counter(s, "planner.coalesce.hash") + counter(s, "planner.coalesce.index")
		byIndex := counter(s, "planner.coalesce.index")
		got := grid(mustExec(t, s, q))
		if counter(s, "planner.coalesce.hash")+counter(s, "planner.coalesce.index") != coalesced+1 {
			t.Errorf("%s: the coalesce operator did not run", q)
		}
		if wantIndex := indexed && len(c.keys) == 1; (counter(s, "planner.coalesce.index") == byIndex+1) != wantIndex {
			t.Errorf("%s: took its groups from the hash index: %v, want %v", q, !wantIndex, wantIndex)
		}
		want := groupReference(t, s, "p", c.keys, c.aggs)
		if c.having != "" {
			want = slices.DeleteFunc(want, func(row []string) bool {
				n, err := strconv.Atoi(row[2])
				return err != nil || n <= 10
			})
		}
		sameGrid(t, q, got, want)
	}
}

// topKDifferential compares ORDER BY ... LIMIT [OFFSET] against the
// unlimited sort sliced here. The heap must reproduce the full stable
// sort exactly — including the first-occurrence order of equal keys,
// DESC directions, OFFSET consumption and NULL ranking. SELECT DISTINCT
// under the same clauses never engages the heap and must match its
// unlimited form sliced here too.
func topKDifferential(t *testing.T, s *engine.Session) {
	t.Helper()
	const overHeapBound = 100000 // k > topKMaxRows: falls back to the full sort
	cases := []struct {
		q             string
		limit, offset int
	}{
		// Single key, both directions; many duplicate keys force the
		// seq tiebreaker to reproduce the stable sort.
		{`SELECT k, v FROM p ORDER BY k`, 10, 0},
		{`SELECT k, v FROM p ORDER BY k DESC`, 10, 0},
		// Multi-key with mixed directions and NULL keys in play; chronon
		// boundaries with many exact ties.
		{`SELECT k, v, at FROM p ORDER BY k DESC, v, at`, 25, 0},
		{`SELECT k, v, at FROM p ORDER BY at DESC, k, v DESC`, 7, 0},
		{`SELECT k, v, at FROM p ORDER BY at DESC, k DESC, v DESC`, 40, 0},
		// OFFSET: the heap must keep limit+offset survivors.
		{`SELECT k, v FROM p ORDER BY k, v`, 10, 5},
		{`SELECT k, v FROM p ORDER BY k, v`, 3, 200},
		{`SELECT k, v FROM p ORDER BY v DESC`, 5, 299}, // offset near the end
		// Degenerate limits.
		{`SELECT k FROM p ORDER BY k`, 0, 0},
		{`SELECT k FROM p ORDER BY k`, 1, 0},
		{`SELECT k, v FROM p ORDER BY k`, overHeapBound, 0},
		// Expression order keys.
		{`SELECT k, v FROM p ORDER BY v * 2 + k, k`, 12, 0},
		// Grouped query under top-K: heap input is the aggregate rows.
		{`SELECT k, COUNT(*) FROM p GROUP BY k ORDER BY 2 DESC, k`, 3, 0},
		{`SELECT k, v, SUM(v) FROM p GROUP BY k, v ORDER BY 3 DESC, k, v`, 6, 2},
		// WHERE + join feeding the heap.
		{`SELECT a.k, b.v FROM p a, p b WHERE a.k = b.k ORDER BY a.k, b.v DESC`, 15, 0},
		// Compound selects: the heap runs over the combined rows.
		{`SELECT k FROM p UNION SELECT v FROM p ORDER BY 1`, 4, 0},
		{`SELECT k, v FROM p UNION ALL SELECT v, k FROM p ORDER BY 1 DESC, 2`, 9, 3},
		{`SELECT k FROM p EXCEPT SELECT 99 FROM p ORDER BY 1 DESC`, 2, 0},
		{`SELECT k, v FROM p UNION ALL SELECT v, k FROM p ORDER BY 1, 2`, 0, 0},
		{`SELECT k FROM p INTERSECT SELECT v FROM p ORDER BY 1`, 3, 50}, // offset past the end
		// NULL keys rank first under DESC; equal keys keep the left
		// operand's rows (v) before the right's (v + 10).
		{`SELECT k, v FROM p UNION ALL SELECT k, v + 10 FROM p ORDER BY 1 DESC`, 100, 30},
	}
	distinct := []struct {
		q             string
		limit, offset int
	}{
		{`SELECT DISTINCT k, v FROM p ORDER BY k DESC, v`, 5, 3},
		{`SELECT DISTINCT v FROM p ORDER BY v`, 2, 1},
		{`SELECT DISTINCT k, at FROM p ORDER BY at DESC, k`, 10, 20},
		{`SELECT DISTINCT v FROM p ORDER BY 1 DESC`, 3, 10}, // offset past the end
	}
	topk := func() float64 { return counter(s, "planner.sort.topk") }
	check := func(q string, limit, offset int, heap bool) {
		limited := fmt.Sprintf("%s LIMIT %d", q, limit)
		if offset > 0 {
			limited += fmt.Sprintf(" OFFSET %d", offset)
		}
		before := topk()
		got := grid(mustExec(t, s, limited))
		engaged := topk() - before
		if (engaged == 1) != heap {
			t.Errorf("%s: top-k heap engaged %v time(s)", limited, engaged)
		}
		want := grid(mustExec(t, s, q))
		if topk() != before+engaged {
			t.Errorf("%s: the reference engaged the top-k heap", q)
		}
		lo, hi := offset, offset+limit
		if lo > len(want) {
			lo = len(want)
		}
		if hi > len(want) {
			hi = len(want)
		}
		sameGrid(t, limited, got, want[lo:hi])
	}
	for _, c := range cases {
		check(c.q, c.limit, c.offset, c.limit < overHeapBound)
	}
	for _, c := range distinct {
		check(c.q, c.limit, c.offset, false)
	}
}

// intervalsOf binds a temporal value (Element or Period; nil for NULL)
// at the test's NOW.
func intervalsOf(v types.Value) []temporal.Interval {
	if v.Null {
		return nil
	}
	switch x := v.Obj().(type) {
	case temporal.Element:
		return x.Bind(testNow)
	case temporal.Period:
		if iv, ok := x.Bind(testNow); ok {
			return []temporal.Interval{iv}
		}
	}
	return nil
}

func anyOverlap(a, b []temporal.Interval) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Overlaps(y) {
				return true
			}
		}
	}
	return false
}

// joinDifferential counts each join's pairs from the tables' rows and
// checks three consumers of the streamed join against that count.
func joinDifferential(t *testing.T, s *engine.Session, indexed bool) {
	t.Helper()
	pRows := mustExec(t, s, `SELECT k, v, valid FROM p`).Rows
	qRows := mustExec(t, s, `SELECT k, during FROM q`).Rows
	sameInt := func(a, b types.Value) bool { return !a.Null && !b.Null && a.Int() == b.Int() }
	count := func(outer, inner []exec.Row, match func(o, i exec.Row) bool) int64 {
		var n int64
		for _, o := range outer {
			for _, i := range inner {
				if match(o, i) {
					n++
				}
			}
		}
		return n
	}
	var leftPairs int64
	for _, q := range qRows {
		n := count([]exec.Row{q}, pRows, func(q, p exec.Row) bool { return sameInt(q[0], p[0]) })
		leftPairs += max(n, 1)
	}
	periodPlan := "nested loop (1 filter(s))"
	if indexed {
		periodPlan = "period-index nested loop"
	}
	for _, c := range []struct {
		from, where, group, plan string
		valid                    string // an Element column of the joined rows
		want                     int64
	}{
		{"p, q", "overlaps(p.valid, q.during)", "q.k", periodPlan, "p.valid",
			count(pRows, qRows, func(p, q exec.Row) bool { return anyOverlap(intervalsOf(p[2]), intervalsOf(q[1])) })},
		{"q, p", "overlaps(q.during, p.valid)", "p.k", periodPlan, "p.valid",
			count(qRows, pRows, func(q, p exec.Row) bool { return anyOverlap(intervalsOf(q[1]), intervalsOf(p[2])) })},
		{"p a, p b", "a.k = b.k", "b.k", "hash join", "a.valid",
			count(pRows, pRows, func(a, b exec.Row) bool { return sameInt(a[0], b[0]) })},
		{"p a, q b", "a.v < b.k", "b.k", "nested loop (1 filter(s))", "a.valid",
			count(pRows, qRows, func(a, b exec.Row) bool { return !b[0].Null && a[1].Int() < b[0].Int() })},
		{"q LEFT JOIN p ON q.k = p.k", "", "q.k", "left outer nested loop", "p.valid", leftPairs},
	} {
		where := ""
		if c.where != "" {
			where = " WHERE " + c.where
		}
		countQ := "SELECT COUNT(*) FROM " + c.from + where
		if plan := strings.Join(firstColumn(mustExec(t, s, "EXPLAIN "+countQ)), "\n"); !strings.Contains(plan, c.plan) {
			t.Errorf("%s: expected a %q plan:\n%s", countQ, c.plan, plan)
		}
		if got := mustExec(t, s, countQ).Rows[0][0].Int(); got != c.want {
			t.Errorf("%s = %d, the test counts %d pairs", countQ, got, c.want)
		}
		groupQ := "SELECT " + c.group + ", COUNT(*) FROM " + c.from + where + " GROUP BY " + c.group
		var sum int64
		for _, r := range mustExec(t, s, groupQ).Rows {
			sum += r[1].Int()
		}
		if sum != c.want {
			t.Errorf("%s sums to %d, the test counts %d pairs", groupQ, sum, c.want)
		}
		starQ := "SELECT * FROM " + c.from + where
		if got := int64(len(mustExec(t, s, starQ).Rows)); got != c.want {
			t.Errorf("%s returns %d rows, the test counts %d pairs", starQ, got, c.want)
		}
		// The coalesce operator keeps its whole input, so it copies the
		// join's rows out; the grouping reference groups the same join.
		aggs := []refAgg{countStar, {name: "group_union", arg: c.valid}}
		unionQ := groupedSQL(c.from+where, []string{c.group}, aggs)
		before := counter(s, "planner.coalesce.hash")
		got := grid(mustExec(t, s, unionQ))
		if counter(s, "planner.coalesce.hash") != before+1 {
			t.Errorf("%s: the coalesce operator did not run", unionQ)
		}
		sameGrid(t, unionQ, got, groupReference(t, s, c.from+where, []string{c.group}, aggs))
	}
}

// firstColumn returns the first column of every row as text.
func firstColumn(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].Format()
	}
	return out
}

// aliasingOperators runs the operators that consume aliased scan rows
// without a specialised twin — generic aggregates, DISTINCT, unbounded
// sorts, hash / nested-loop / left / period-index joins, index-driven
// scans and the set operations — so the slab check covers them. Their
// answers are checked by the operator suites next to this file.
func aliasingOperators(t *testing.T, s *engine.Session) {
	t.Helper()
	for _, q := range []string{
		`SELECT k, SUM(v), MIN(v), MAX(v) FROM p GROUP BY k ORDER BY k`,
		`SELECT v, COUNT(*) FROM p WHERE k = 2 GROUP BY v ORDER BY v`,
		`SELECT DISTINCT k, v FROM p ORDER BY k, v`,
		`SELECT DISTINCT valid FROM p`,
		`SELECT k, v, at, valid FROM p ORDER BY at, k, v`,
		`SELECT k, v FROM p WHERE overlaps(valid, '[1998-01-05, 1998-01-15]') ORDER BY k, v`,
		`SELECT a.k, b.v FROM p a, p b WHERE a.k = b.k AND a.v < b.v ORDER BY a.k, b.v`,
		`SELECT p.k, q.k FROM p, q WHERE overlaps(p.valid, q.during) ORDER BY p.k, q.k`,
		`SELECT p.k, q.k FROM p, q WHERE overlaps(q.during, p.valid) ORDER BY p.k, q.k`,
		`SELECT q.k, COUNT(p.v) FROM q LEFT JOIN p ON q.k = p.k GROUP BY q.k ORDER BY q.k`,
		`SELECT k FROM p UNION SELECT k FROM q ORDER BY 1`,
		`SELECT k FROM p EXCEPT SELECT k FROM q ORDER BY 1`,
		`SELECT k FROM p INTERSECT SELECT k FROM q ORDER BY 1`,
		`SELECT v FROM p UNION ALL SELECT k FROM q ORDER BY 1`,
	} {
		mustExec(t, s, q)
	}
}

// TestDifferential runs the whole battery twice: over bare tables
// (full scans) and with hash and period indexes present (index-driven
// scans, the period-index join).
func TestDifferential(t *testing.T) {
	for _, fx := range []struct {
		name    string
		seed    int64
		indexed bool
	}{
		{"plain", 77, false},
		{"indexed", 78, true},
	} {
		t.Run(fx.name, func(t *testing.T) {
			s := newDB(t)
			seedParity(t, s, rand.New(rand.NewSource(fx.seed)), 300)
			mustExec(t, s, `CREATE TABLE q (k INT, during Period)`)
			mustExec(t, s, `INSERT INTO q VALUES
				(0, '[1998-01-03, 1998-01-20]'), (1, '[1998-01-10, 1998-02-05]'),
				(2, '[1998-02-01, 1998-02-02]'), (NULL, '[1998-01-01, 1998-03-01]')`)
			if fx.indexed {
				mustExec(t, s, `CREATE INDEX pk ON p (k)`)
				mustExec(t, s, `CREATE INDEX pv ON p (valid) USING PERIOD`)
				mustExec(t, s, `CREATE INDEX qd ON q (during) USING PERIOD`)
			}
			slabs := slabBytes(t, s, "p", "q")

			coalesceDifferential(t, s, fx.indexed)
			topKDifferential(t, s)
			joinDifferential(t, s, fx.indexed)
			aliasingOperators(t, s)

			if !bytes.Equal(slabBytes(t, s, "p", "q"), slabs) {
				t.Error("an operator wrote through an aliased slab row: table contents changed under read-only queries")
			}
		})
	}
	t.Run("coalesce-vs-reference", func(t *testing.T) {
		s := newDB(t)
		rows := genRefRows(rand.New(rand.NewSource(80)), 300)
		seedRef(t, s, rows)
		coalesceReference(t, s, rows)
	})
	t.Run("index-vs-scan", func(t *testing.T) {
		plain, indexed := newDB(t), newDB(t)
		seedIndexFixtures(t, plain, indexed)
		mustExec(t, indexed, `CREATE INDEX pa ON p (at) USING PERIOD`)
		for _, now := range []string{"1998-02-05", "1998-03-20"} {
			for _, s := range []*engine.Session{plain, indexed} {
				mustExec(t, s, fmt.Sprintf(`SET NOW = '%s'`, now))
			}
			indexDifferential(t, plain, indexed)
		}
	})
}

// TestCoalesceIndexDifferential gives the coalesce operator the same
// rows twice, bare and behind hash indexes on its VARCHAR and INT group
// columns, whose keys then give the rows their groups (planner.coalesce.
// index): the answers must be the same rows in the same order. The
// queries cover the fused length, the Element itself, COUNT(*) and
// COUNT(col) beside them, a pushed filter, HAVING and ORDER BY; the rows
// cover NULL keys, NOW-relative and NULL elements, deleted slots refilled
// by later rows (so a key's ids leave slot order), UPDATEs that move rows
// to another key and to and from NULL, rows inserted after CREATE INDEX,
// and a transaction's own INSERT and DELETE, each under two SET NOWs.
func TestCoalesceIndexDifferential(t *testing.T) {
	plain, indexed := newDB(t), newDB(t)
	both := func(sql string) {
		t.Helper()
		mustExec(t, plain, sql)
		mustExec(t, indexed, sql)
	}
	r := rand.New(rand.NewSource(81))
	base := temporal.MustDate(1998, 1, 1)
	insert := func(n int) {
		t.Helper()
		vals := make([]string, n)
		for i := range vals {
			k, num, valid := "NULL", "NULL", "NULL"
			if r.Intn(8) != 0 {
				k = fmt.Sprintf("'k%d'", r.Intn(12))
			}
			if r.Intn(8) != 0 {
				num = fmt.Sprint(r.Intn(6))
			}
			lo := base + temporal.Chronon(int64(r.Intn(500))*86400)
			switch r.Intn(10) {
			case 0:
			case 1, 2: // [start, NOW]: its length moves with NOW
				valid = fmt.Sprintf("'{[%s, NOW]}'", lo)
			default:
				valid = fmt.Sprintf("'[%s, %s]'", lo, lo+temporal.Chronon(int64(r.Intn(30))*86400+86399))
			}
			vals[i] = fmt.Sprintf("(%s, %s, %d, %s)", k, num, r.Intn(10), valid)
		}
		both("INSERT INTO ci VALUES " + strings.Join(vals, ", "))
	}
	queries := []string{
		`SELECT k, length(group_union(valid)) FROM ci GROUP BY k`,
		`SELECT k, group_union(valid) FROM ci GROUP BY k`,
		`SELECT k, COUNT(*), COUNT(valid), length(group_union(valid)), COUNT(n) FROM ci GROUP BY k`,
		`SELECT k, group_union(valid), COUNT(*) FROM ci GROUP BY k HAVING COUNT(*) > 2 ORDER BY 3 DESC, k`,
		`SELECT k, length(group_union(valid)) FROM ci WHERE d <> 4 GROUP BY k`,
		`SELECT n, length(group_union(valid)), COUNT(k) FROM ci GROUP BY n`,
		`SELECT n, COUNT(*), group_union(valid) FROM ci GROUP BY n ORDER BY n DESC`,
	}
	check := func(step string) {
		t.Helper()
		for _, now := range []string{"1998-03-01", "1999-06-01"} {
			both(fmt.Sprintf(`SET NOW = '%s'`, now))
			for _, q := range queries {
				col := q[strings.Index(q, "GROUP BY ")+len("GROUP BY ")]
				if plan := explained(t, plain, q); !strings.Contains(plan, "coalesce: hash") || strings.Contains(plan, "index on") {
					t.Fatalf("%s: %s: the bare copy should group through its map:\n%s", step, q, plan)
				}
				want := fmt.Sprintf("coalesce: hash index on %c", col)
				if plan := explained(t, indexed, q); !strings.Contains(plan, want) {
					t.Fatalf("%s: %s: want %q:\n%s", step, q, want, plan)
				}
				sameGrid(t, step+" at "+now+": "+q, grid(mustExec(t, indexed, q)), grid(mustExec(t, plain, q)))
			}
		}
	}
	both(`CREATE TABLE ci (k VARCHAR(8), n INT, d INT, valid Element)`)
	insert(150)
	mustExec(t, indexed, `CREATE INDEX ci_k ON ci (k)`)
	mustExec(t, indexed, `CREATE INDEX ci_n ON ci (n)`)
	check("loaded")
	both(`DELETE FROM ci WHERE d < 3`)
	insert(60)
	check("refilled")
	both(`UPDATE ci SET k = 'k1' WHERE d = 5`)
	both(`UPDATE ci SET k = NULL, n = 2 WHERE d = 6`)
	both(`UPDATE ci SET k = 'k11', n = NULL WHERE k IS NULL AND d = 7`)
	check("updated")
	both(`BEGIN`)
	insert(20)
	both(`DELETE FROM ci WHERE d = 8`)
	check("in a transaction")
	both(`COMMIT`)
	check("committed")
}

// TestCoalescePeriodDifferential gives the coalesce operator the same
// rows three times: bare, behind hash indexes on its group columns k
// and n, and behind those and a period index on valid, from whose entry
// log the operator then reads its periods (planner.coalesce.period). The
// answers must be the same rows in the same order. The rows cover NULL
// and empty elements, groups whose every element is NULL or empty,
// [start, NOW] periods, NOW-relative periods that bind empty at one of
// the two SET NOWs, NULL keys, slots freed by DELETE and refilled,
// UPDATEs of valid and of the key, a transaction's own writes, and a
// ROLLBACK. COUNT(valid), COUNT(n), a filter and a second group_union
// over the unindexed other keep the hash-index plan on the third copy.
func TestCoalescePeriodDifferential(t *testing.T) {
	plain, hashed, periodic := newDB(t), newDB(t), newDB(t)
	all := []*engine.Session{plain, hashed, periodic}
	each := func(sql string) {
		t.Helper()
		for _, s := range all {
			mustExec(t, s, sql)
		}
	}
	r := rand.New(rand.NewSource(82))
	base := temporal.MustDate(1998, 1, 1)
	element := func() string {
		var ps []string
		for range r.Intn(4) {
			lo := base + temporal.Chronon(int64(r.Intn(500))*86400)
			switch r.Intn(6) {
			case 0: // [start, NOW]: empty at a NOW before its start
				ps = append(ps, fmt.Sprintf("[%s, NOW]", lo))
			case 1: // [NOW-k, NOW]
				ps = append(ps, fmt.Sprintf("[NOW-%d 00:00:00, NOW]", r.Intn(90)))
			case 2: // starts 400 days before NOW: empty at the later NOW
				ps = append(ps, "[NOW-400 00:00:00, 1998-02-01]")
			default:
				ps = append(ps, fmt.Sprintf("[%s, %s]", lo, lo+temporal.Chronon(int64(r.Intn(30))*86400+86399)))
			}
		}
		return "'{" + strings.Join(ps, ", ") + "}'" // no period: the empty element
	}
	insert := func(n int) {
		t.Helper()
		vals := make([]string, n)
		for i := range vals {
			k, num, valid, other := "NULL", "NULL", "NULL", "NULL"
			if r.Intn(8) != 0 {
				k = fmt.Sprintf("'k%d'", r.Intn(12))
			}
			if r.Intn(8) != 0 {
				num = fmt.Sprint(r.Intn(6))
			}
			if r.Intn(6) != 0 {
				valid = element()
			}
			if r.Intn(3) != 0 {
				other = element()
			}
			vals[i] = fmt.Sprintf("(%s, %s, %d, %s, %s)", k, num, r.Intn(10), valid, other)
		}
		each("INSERT INTO cp VALUES " + strings.Join(vals, ", "))
	}
	periodQueries := []string{
		`SELECT k, length(group_union(valid)) FROM cp GROUP BY k`,
		`SELECT k, group_union(valid) FROM cp GROUP BY k`,
		`SELECT k, COUNT(*), group_union(valid), length(group_union(valid)) FROM cp GROUP BY k HAVING COUNT(*) > 1 ORDER BY 2 DESC, k`,
		`SELECT n, COUNT(*), length(group_union(valid)) FROM cp GROUP BY n ORDER BY n DESC`,
	}
	hashQueries := []string{
		`SELECT k, COUNT(valid), length(group_union(valid)) FROM cp GROUP BY k`,
		`SELECT k, COUNT(n), group_union(valid) FROM cp GROUP BY k`,
		`SELECT k, length(group_union(valid)) FROM cp WHERE d <> 4 GROUP BY k`,
		`SELECT k, length(group_union(valid)), group_union(other) FROM cp GROUP BY k`,
	}
	check := func(step string) {
		t.Helper()
		for _, now := range []string{"1998-03-01", "1999-06-01"} {
			each(fmt.Sprintf(`SET NOW = '%s'`, now))
			for _, q := range slices.Concat(periodQueries, hashQueries) {
				col := q[strings.Index(q, "GROUP BY ")+len("GROUP BY ")]
				keys := fmt.Sprintf("coalesce: hash index on %c", col)
				for _, c := range []struct {
					s             *engine.Session
					want, notWant string
				}{
					{plain, "coalesce: hash", "index on"},
					{hashed, keys, "period index"},
					{periodic, keys + ", period index on valid", ""},
				} {
					if c.s == periodic && slices.Contains(hashQueries, q) {
						c.want, c.notWant = keys, "period index"
					}
					plan := explained(t, c.s, q)
					if !strings.Contains(plan, c.want) || c.notWant != "" && strings.Contains(plan, c.notWant) {
						t.Fatalf("%s: %s: want %q without %q:\n%s", step, q, c.want, c.notWant, plan)
					}
				}
				want := grid(mustExec(t, plain, q))
				sameGrid(t, step+" at "+now+", hash index: "+q, grid(mustExec(t, hashed, q)), want)
				sameGrid(t, step+" at "+now+", period index: "+q, grid(mustExec(t, periodic, q)), want)
			}
		}
	}
	each(`CREATE TABLE cp (k VARCHAR(8), n INT, d INT, valid Element, other Element)`)
	insert(150)
	// Groups whose every element is NULL, or empty, or NULL and empty.
	each(`INSERT INTO cp VALUES ('knull', 1, 0, NULL, NULL), ('knull', 1, 0, NULL, '{}'),
		('kempty', 2, 0, '{}', NULL), ('kempty', 2, 0, NULL, NULL), ('kboth', NULL, 0, NULL, NULL), ('kboth', NULL, 0, '{}', NULL)`)
	for _, s := range []*engine.Session{hashed, periodic} {
		mustExec(t, s, `CREATE INDEX cp_k ON cp (k)`)
		mustExec(t, s, `CREATE INDEX cp_n ON cp (n)`)
	}
	mustExec(t, periodic, `CREATE INDEX cp_valid ON cp (valid) USING PERIOD`)
	before := counter(periodic, "planner.coalesce.period")
	check("loaded")
	// At each of the two NOWs each query runs once; its EXPLAIN counts
	// no plan choice.
	if got, want := counter(periodic, "planner.coalesce.period")-before, float64(2*len(periodQueries)); got != want {
		t.Errorf("planner.coalesce.period counted %v plans, want %v", got, want)
	}
	each(`DELETE FROM cp WHERE d < 3`)
	insert(60)
	check("refilled")
	each(`UPDATE cp SET k = 'k1' WHERE d = 5`)
	each(`UPDATE cp SET k = NULL, n = 2 WHERE d = 6`)
	each(`UPDATE cp SET valid = NULL WHERE d = 7 AND n = 1`)
	each(`UPDATE cp SET valid = '{}' WHERE d = 7 AND n = 2`)
	each(`UPDATE cp SET valid = '{[1998-05-01, NOW], [1998-01-01, 1998-01-31]}' WHERE d = 8`)
	check("updated")
	each(`BEGIN`)
	insert(20)
	each(`DELETE FROM cp WHERE d = 9`)
	each(`UPDATE cp SET valid = '[1998-02-01, 1998-02-28]' WHERE k = 'knull'`)
	check("in a transaction")
	each(`ROLLBACK`)
	check("rolled back")
	each(`BEGIN`)
	insert(20)
	each(`UPDATE cp SET k = 'kempty' WHERE d = 4`)
	each(`COMMIT`)
	check("committed")
}

// seedIndexFixtures loads the same rows into plain and indexed and gives
// indexed a hash index on p.k and period indexes on p.valid and
// q.during.
func seedIndexFixtures(t *testing.T, plain, indexed *engine.Session) {
	t.Helper()
	for _, s := range []*engine.Session{plain, indexed} {
		seedParity(t, s, rand.New(rand.NewSource(79)), 300)
		// Stored NOW-relative rows: open since January, open since a
		// day that NOW = 1998-02-05 has not reached (binds empty), and
		// a closed period beside an open one.
		mustExec(t, s, `INSERT INTO p VALUES
			(1, 2, '{[1998-01-20, NOW]}', '1998-01-20'), (2, 3, '{[1998-02-10, NOW]}', '1998-02-10'),
			(3, 1, '{[1998-01-02, 1998-01-04], [1998-02-20, NOW]}', '1998-01-02'), (NULL, 0, '{[NOW, NOW]}', NULL)`)
		mustExec(t, s, `CREATE TABLE q (k INT, during Period)`)
		mustExec(t, s, `INSERT INTO q VALUES
			(0, '[1998-01-03, 1998-01-20]'), (1, '[1998-01-10, 1998-02-05]'),
			(2, '[1998-02-01, 1998-02-02]'), (NULL, '[1998-01-01, 1998-03-01]'), (4, '[1998-02-15, NOW]')`)
	}
	mustExec(t, indexed, `CREATE INDEX pk ON p (k)`)
	mustExec(t, indexed, `CREATE INDEX pv ON p (valid) USING PERIOD`)
	mustExec(t, indexed, `CREATE INDEX qd ON q (during) USING PERIOD`)
}

// indexDifferential asks the bare and the indexed fixture the same
// queries and requires the same cells in the same order; plan, when set,
// is a fragment the indexed EXPLAIN must show.
func indexDifferential(t *testing.T, plain, indexed *engine.Session) {
	t.Helper()
	const exact = "exact overlaps"
	for _, c := range []struct{ q, plan string }{
		// Exact probes over Element and Chronon columns, either argument
		// order, NOW-relative and multi-period windows.
		{`SELECT k, v, valid FROM p WHERE overlaps(valid, '[1998-01-25, 1998-02-03]')`, exact},
		{`SELECT COUNT(*) FROM p WHERE overlaps('{[1998-01-01, 1998-01-03], [1998-02-08, NOW]}', valid)`, exact},
		{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[1998-02-12, 1998-02-12]') AND v > 0`, exact},
		{`SELECT k, at FROM p WHERE overlaps(at, '[1998-01-10, 1998-01-20]')`, exact},
		{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[NOW, NOW]')`, exact},
		// Probes that find nothing return nothing.
		{`SELECT COUNT(*) FROM p WHERE overlaps(valid, '[2005-01-01, 2005-01-02]')`, exact},
		{`SELECT k, v FROM p WHERE k = 99`, "hash index on k"},
		// contains keeps its re-check, and an empty contained side
		// matches every element.
		{`SELECT COUNT(*) FROM p WHERE contains(valid, '{[1998-01-05, 1998-01-06]}'::Element)`, "(1 filter(s) re-checked)"},
		{`SELECT COUNT(*) FROM p WHERE contains(valid, '{}'::Element)`, "period index on valid (1 filter(s) re-checked)"},
		// Exact joins whose joined table's columns are read only in ORDER
		// BY, HAVING, GROUP BY, CASE, aggregate arguments or a subquery.
		{`SELECT q.k FROM q, p WHERE overlaps(p.valid, q.during) ORDER BY p.at, p.v, q.k`, exact},
		{`SELECT q.k, COUNT(*) FROM q, p WHERE overlaps(p.valid, q.during) GROUP BY q.k HAVING MAX(p.v) > 1 ORDER BY q.k`, exact},
		{`SELECT COUNT(*) FROM q, p WHERE overlaps(q.during, p.valid) GROUP BY p.k ORDER BY 1`, exact},
		{`SELECT SUM(CASE WHEN p.v > 1 THEN 1 ELSE 0 END), COUNT(*) FROM p, q WHERE overlaps(p.valid, q.during)`, exact},
		{`SELECT q.k, MIN(p.at), MAX(p.at), COUNT(p.valid), group_union(p.valid) FROM q, p
			WHERE overlaps(p.valid, q.during) GROUP BY q.k ORDER BY q.k`, exact},
		{`SELECT q.k, (SELECT COUNT(*) FROM p p2 WHERE p2.k = p.k) FROM q, p
			WHERE overlaps(p.valid, q.during) ORDER BY 1, 2`, exact},
		// Three levels: the exact level materialises what the hash level
		// reads; and an equality later in the WHERE takes the level, so
		// the overlaps conjunct must stay a filter.
		{`SELECT COUNT(*), SUM(b.v) FROM q, p a, p b WHERE overlaps(a.valid, q.during) AND a.k = b.k AND b.at <> a.at`, exact},
		{`SELECT COUNT(*) FROM p a, p b WHERE overlaps(a.valid, b.valid) AND a.k = b.k`, "hash join (1 residual filter(s))"},
		{`SELECT COUNT(*) FROM q, p WHERE contains(p.valid, q.during)`, "period-index nested loop on valid (1 filter(s) re-checked)"},
		// A period-join level whose source also has a pushed equality on
		// a hash-indexed column and a pushed range filter: the period
		// probe drives the level and the pushed filters re-check its hits.
		{`SELECT q.k, p.v, p.at FROM q, p WHERE overlaps(p.valid, q.during) AND p.k = 2 AND p.v BETWEEN 1 AND 2
			ORDER BY 1, 2, 3`, "join p: period-index nested loop on valid, exact overlaps (0 filter(s) re-checked)"},
		{`SELECT COUNT(*) FROM q, p WHERE overlaps(p.valid, q.during) AND p.k = 2 AND p.v > 0`, exact},
		// Outer rows whose probe is NULL (p.valid) pair with nothing,
		// counted and grouped.
		{`SELECT COUNT(*) FROM p, q WHERE overlaps(q.during, p.valid)`, "join q: period-index nested loop on during, exact overlaps"},
		{`SELECT p.k, COUNT(*), MIN(q.k) FROM p, q WHERE overlaps(q.during, p.valid) GROUP BY p.k ORDER BY 1`, exact},
		// Three sources with the period level last: its probe reads the
		// hash level's full-width arena rows.
		{`SELECT COUNT(*), SUM(b.v) FROM q, p a, p b WHERE a.k = q.k AND overlaps(b.valid, a.valid)`,
			"join b: period-index nested loop on valid, exact overlaps"},
		{`SELECT q.k, a.v, b.k, b.at FROM q, p a, p b WHERE a.k = q.k AND overlaps(b.valid, a.valid) AND b.v = 3
			ORDER BY 1, 2, 3, 4`, "join b: period-index nested loop on valid, exact overlaps"},
		// A star reads every column of every source.
		{`SELECT * FROM q, p WHERE overlaps(p.valid, q.during)`, exact},
		// LEFT JOIN ON reads columns nothing else does.
		{`SELECT q.k, COUNT(p.v) FROM q LEFT JOIN p ON p.k = q.k AND overlaps(p.valid, q.during) GROUP BY q.k ORDER BY q.k`, ""},
	} {
		if c.plan != "" {
			if plan := explained(t, indexed, c.q); !strings.Contains(plan, c.plan) {
				t.Errorf("%s: indexed plan lacks %q:\n%s", c.q, c.plan, plan)
			}
		}
		sameGrid(t, c.q, grid(mustExec(t, indexed, c.q)), grid(mustExec(t, plain, c.q)))
	}
	correlatedProbes(t, plain, indexed)
}

// correlatedProbes checks a correlated subquery, whose scan probes p's
// period index once per outer row of q, against the join of q and p,
// which probes it once per accumulated row: q's rows that EXISTS keeps
// are the join's groups (q.k is unique), and the per-row counts sum to
// the join's count.
func correlatedProbes(t *testing.T, plain, indexed *engine.Session) {
	t.Helper()
	const (
		exists  = `SELECT COUNT(*) FROM q WHERE EXISTS (SELECT 1 FROM p WHERE overlaps(p.valid, q.during))`
		perRow  = `SELECT q.k, (SELECT COUNT(*) FROM p WHERE overlaps(p.valid, q.during)) FROM q ORDER BY 1`
		groups  = `SELECT q.k, COUNT(*) FROM q, p WHERE overlaps(p.valid, q.during) GROUP BY q.k ORDER BY 1`
		joinCnt = `SELECT COUNT(*) FROM q, p WHERE overlaps(p.valid, q.during)`
		// A join inside a correlated subquery: i's pushed filters read
		// the outer row o, one scope below the accumulated q row the
		// probe reads, whose second column is a Period, not o.v.
		nested = `SELECT o.k, o.v, o.at FROM p o WHERE o.k = 1 AND EXISTS (SELECT 1 FROM q, p i
			WHERE overlaps(i.valid, q.during) AND i.v = o.v AND i.at < o.at) ORDER BY 1, 2, 3`
	)
	if plan := explained(t, indexed, exists); !strings.Contains(plan, "period index on valid, exact overlaps") {
		t.Errorf("%s: the subquery does not probe the period index:\n%s", exists, plan)
	}
	for _, s := range []*engine.Session{plain, indexed} {
		kept, byGroup := mustExec(t, s, exists).Rows[0][0].Int(), mustExec(t, s, groups).Rows
		if kept != int64(len(byGroup)) || kept == 0 {
			t.Errorf("%s = %d, but the join pairs %d rows of q", exists, kept, len(byGroup))
		}
		var sum int64
		for _, r := range mustExec(t, s, perRow).Rows {
			sum += r[1].Int()
		}
		if n := mustExec(t, s, joinCnt).Rows[0][0].Int(); sum != n {
			t.Errorf("%s sums to %d, but %s = %d", perRow, sum, joinCnt, n)
		}
	}
	if plan := explained(t, indexed, nested); !strings.Contains(plan, "join i: period-index nested loop on valid, exact overlaps") {
		t.Errorf("%s: the subquery's join does not probe the period index:\n%s", nested, plan)
	}
	for _, q := range []string{perRow, nested} {
		sameGrid(t, q, grid(mustExec(t, indexed, q)), grid(mustExec(t, plain, q)))
	}
}

// dmlShapes are UPDATE and DELETE statements run in turn on a bare and an
// indexed fixture; scan names the planner.scan.* counter the indexed
// side's WHERE must bump, if any.
var dmlShapes = []struct {
	sql    string
	params map[string]types.Value
	scan   string
}{
	// The UPDATE re-indexes some rows of key 1 at the end of its hash ids,
	// so the DELETE finds them out of id order. It must free the slots in
	// id order, as the bare table's scan does: the INSERT fills them.
	{`UPDATE p SET v = v + 1 WHERE k = 1 AND v = 0`, nil, "hash"},
	{`DELETE FROM p WHERE k = 1`, nil, "hash"},
	{`INSERT INTO p VALUES (5, 0, NULL, NULL), (6, 1, NULL, NULL), (7, 2, NULL, NULL), (8, 3, NULL, NULL)`, nil, ""},
	// Hash equality by literal and by parameter, and a key nothing has.
	{`UPDATE p SET v = v + 10 WHERE k = 3`, nil, "hash"},
	{`DELETE FROM p WHERE k = :k`, map[string]types.Value{"k": types.NewInt(4)}, "hash"},
	{`UPDATE p SET v = v + 1 WHERE k = :k AND v > 1`, map[string]types.Value{"k": types.NewInt(0)}, "hash"},
	{`DELETE FROM p WHERE k = 99`, nil, "hash"},
	// A NULL probe matches nothing.
	{`DELETE FROM p WHERE k = :k`, map[string]types.Value{"k": types.NewNull(types.TInt)}, "hash"},
	// A probe the implicit cast rejects scans fully and fails there as on
	// the bare table; one it accepts probes.
	{`UPDATE p SET v = v + 1 WHERE at = 'not a chronon'`, nil, "hash"},
	{`DELETE FROM p WHERE at = '1998-01-20'`, nil, "hash"},
	// Exact overlaps, either argument order, over stored [start, NOW]
	// rows and NOW-relative windows.
	{`UPDATE p SET v = v + 1 WHERE overlaps(valid, '[1998-01-25, 1998-02-03]')`, nil, "period"},
	{`DELETE FROM p WHERE overlaps('{[1998-02-08, NOW]}', valid) AND v > 2`, nil, "period"},
	{`UPDATE p SET valid = '{[1998-01-15, NOW]}' WHERE overlaps(valid, '[NOW, NOW]') AND k = 0`, nil, "period"},
	// contains keeps its re-check; an empty contained side matches
	// every element.
	{`DELETE FROM p WHERE contains(valid, '{[1998-01-05, 1998-01-06]}'::Element)`, nil, "period"},
	{`UPDATE p SET v = v + 1 WHERE contains(valid, '{}'::Element) AND v < 2`, nil, "period"},
	// IN (SELECT …) over another table and over the written one.
	{`UPDATE p SET v = v * 2 WHERE k IN (SELECT k FROM q WHERE k < 2) AND overlaps(valid, '[1998-01-01, 1998-01-31]')`, nil, "period"},
	{`DELETE FROM p WHERE k = 2 AND v IN (SELECT v FROM p WHERE k = 0)`, nil, "hash"},
	// Columns qualified with the table's name in another letter case.
	{`UPDATE p SET v = v + 1 WHERE P.k = 0`, nil, "hash"},
	{`DELETE FROM P WHERE p.K = 3 AND overlaps(P.valid, '[1998-01-01, 1998-01-20]')`, nil, "hash"},
	// A Period column, and a WHERE no index serves.
	{`UPDATE q SET k = k + 1 WHERE overlaps(during, '[1998-01-15, 1998-01-16]')`, nil, "period"},
	{`DELETE FROM p WHERE v = 3`, nil, "full"},
}

// dmlDifferential runs sql on the bare and the indexed fixture and
// requires the same outcome: the same error, or the same Affected and
// the same encoded rows in both tables afterwards. It returns Affected.
func dmlDifferential(t *testing.T, plain, indexed *engine.Session, sql string, params map[string]types.Value, scan string) int {
	t.Helper()
	before := counter(indexed, "planner.scan."+scan)
	want, wantErr := plain.Exec(sql, params)
	got, err := indexed.Exec(sql, params)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: indexed err = %v, bare err = %v", sql, err, wantErr)
	case err == nil && got.Affected != want.Affected:
		t.Fatalf("%s: %d rows affected on the indexed table, %d on the bare one", sql, got.Affected, want.Affected)
	}
	if scan != "" && counter(indexed, "planner.scan."+scan) == before {
		t.Errorf("%s: the indexed WHERE did not take a %s scan", sql, scan)
	}
	if !bytes.Equal(slabBytes(t, indexed, "p", "q"), slabBytes(t, plain, "p", "q")) {
		t.Fatalf("%s: the tables differ afterwards", sql)
	}
	if err != nil {
		return 0
	}
	return got.Affected
}

// TestDMLDifferential runs UPDATE and DELETE on a bare fixture, where
// the WHERE scans the whole table, and on the same rows indexed, where
// it probes the hash or the period index: under two SET NOWs, inside a
// transaction after an earlier write, and with a user overload of
// overlaps that the index must not answer.
func TestDMLDifferential(t *testing.T) {
	plain, indexed := newDB(t), newDB(t)
	seedIndexFixtures(t, plain, indexed)
	mustExec(t, indexed, `CREATE INDEX pah ON p (at)`)
	both := func(sql string) {
		t.Helper()
		for _, s := range []*engine.Session{plain, indexed} {
			mustExec(t, s, sql)
		}
	}
	affected := 0
	battery := func() {
		t.Helper()
		for _, c := range dmlShapes {
			affected += dmlDifferential(t, plain, indexed, c.sql, c.params, c.scan)
		}
	}
	for _, now := range []string{"1998-02-05", "1998-03-20"} {
		both(fmt.Sprintf(`SET NOW = '%s'`, now))
		battery()
	}
	both(`BEGIN`)
	both(`INSERT INTO p VALUES (3, 7, '{[1998-01-26, 1998-01-27]}', '1998-01-26'), (0, 1, '{[1998-01-05, 1998-01-06]}', NULL)`)
	battery()
	both(`COMMIT`)
	if !bytes.Equal(slabBytes(t, indexed, "p", "q"), slabBytes(t, plain, "p", "q")) {
		t.Fatal("the tables differ after COMMIT")
	}
	if affected == 0 {
		t.Fatal("no statement changed a row: the fixture tells nothing apart")
	}

	// A strict overlaps(Period, Period) resolves ahead of the builtin for
	// q.during, so the index only narrows the rows and the conjunct is
	// re-checked; the builtin through an Element cast matches more.
	registerAllenOverlaps(plain, indexed)
	const window = `'[1998-01-15, 1998-02-01]'`
	loose := mustExec(t, indexed, `SELECT COUNT(*) FROM q WHERE overlaps(during, `+window+`::Element)`).Rows[0][0].Int()
	if n := dmlDifferential(t, plain, indexed, `UPDATE q SET k = k + 100 WHERE overlaps(during, `+window+`)`, nil, "period"); int64(n) >= loose {
		t.Errorf("the overload changed %d rows, not fewer than the builtin's %d: the fixture does not tell them apart", n, loose)
	}
	dmlDifferential(t, plain, indexed, `DELETE FROM q WHERE overlaps(during, `+window+`)`, nil, "period")
}

// TestDMLHalloween checks that an UPDATE whose new value still matches
// its WHERE changes every matching row exactly once, through the hash
// and the period index as through the bare table's scan.
func TestDMLHalloween(t *testing.T) {
	plain, indexed := newDB(t), newDB(t)
	seedIndexFixtures(t, plain, indexed)
	count := func(s *engine.Session, where string) int64 {
		t.Helper()
		return mustExec(t, s, `SELECT COUNT(*) FROM p WHERE `+where).Rows[0][0].Int()
	}
	sumV := func(s *engine.Session) int64 {
		t.Helper()
		return mustExec(t, s, `SELECT SUM(v) FROM p`).Rows[0][0].Int()
	}

	// Key 1 moves onto key 2, which is taken.
	atN, atN1 := count(plain, `k = 1`), count(plain, `k = 2`)
	if atN == 0 || atN1 == 0 {
		t.Fatalf("the fixture has %d rows with k = 1 and %d with k = 2; both must exist", atN, atN1)
	}
	n := dmlDifferential(t, plain, indexed, `UPDATE p SET k = k + 1 WHERE k = 1`, nil, "hash")
	for _, s := range []*engine.Session{plain, indexed} {
		if int64(n) != atN || count(s, `k = 1`) != 0 || count(s, `k = 2`) != atN+atN1 {
			t.Fatalf("UPDATE p SET k = k + 1 WHERE k = 1 changed %d of %d rows; now %d rows have k = 1 and %d k = 2, want 0 and %d",
				n, atN, count(s, `k = 1`), count(s, `k = 2`), atN+atN1)
		}
	}

	// Every matched row gets the window itself, which the WHERE matches
	// again, and v counts the visits.
	const where = `overlaps(valid, '[1998-01-25, 1998-02-03]')`
	matched, sum := count(plain, where), sumV(plain)
	if matched == 0 {
		t.Fatalf("no row matches %s", where)
	}
	n = dmlDifferential(t, plain, indexed, `UPDATE p SET valid = '[1998-01-25, 1998-02-03]', v = v + 1 WHERE `+where, nil, "period")
	for _, s := range []*engine.Session{plain, indexed} {
		if int64(n) != matched || count(s, where) != matched || sumV(s) != sum+matched {
			t.Fatalf("the window UPDATE changed %d of %d rows; now %d match and SUM(v) = %d, want %d and %d",
				n, matched, count(s, where), sumV(s), matched, sum+matched)
		}
	}
}
