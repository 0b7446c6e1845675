package exec_test

// SQL semantics battery for the executor, run through a TIP-enabled
// engine so blade resolution, casts and the full pipeline are exercised.

import (
	"strings"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/engine"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

var testNow = temporal.MustDate(1999, 11, 12)

func newDB(t *testing.T) *engine.Session {
	t.Helper()
	reg := blade.NewRegistry()
	if _, err := core.Register(reg); err != nil {
		t.Fatal(err)
	}
	db := engine.New(reg)
	db.SetClock(func() temporal.Chronon { return testNow })
	return db.NewSession()
}

func mustExec(t *testing.T, s *engine.Session, sql string) *exec.Result {
	t.Helper()
	res, err := s.Exec(sql, nil)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

// grid renders a result as rows of formatted cells for compact
// comparisons.
func grid(res *exec.Result) [][]string {
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			out[i][j] = v.Format()
		}
	}
	return out
}

func seedEmp(t *testing.T, s *engine.Session) {
	t.Helper()
	mustExec(t, s, `CREATE TABLE dept (dno INT, dname VARCHAR(20))`)
	mustExec(t, s, `CREATE TABLE emp (eno INT, ename VARCHAR(20), dno INT, sal INT)`)
	mustExec(t, s, `INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')`)
	mustExec(t, s, `INSERT INTO emp VALUES
		(10, 'ann', 1, 100), (11, 'bob', 1, 200), (12, 'cat', 2, 150),
		(13, 'dan', 2, 50), (14, 'eve', NULL, 300)`)
}

func TestJoinHash(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `
		SELECT e.ename, d.dname FROM emp e, dept d
		WHERE e.dno = d.dno ORDER BY e.eno`)
	want := [][]string{{"ann", "eng"}, {"bob", "eng"}, {"cat", "sales"}, {"dan", "sales"}}
	got := grid(res)
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestJoinInnerSyntax(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	a := mustExec(t, s, `SELECT COUNT(*) FROM emp e JOIN dept d ON e.dno = d.dno`)
	b := mustExec(t, s, `SELECT COUNT(*) FROM emp e, dept d WHERE e.dno = d.dno`)
	if a.Rows[0][0].Int() != b.Rows[0][0].Int() {
		t.Errorf("JOIN ON and comma join disagree: %v vs %v", a.Rows, b.Rows)
	}
}

func TestJoinNonEqui(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	// Inequality joins take the nested-loop path.
	res := mustExec(t, s, `
		SELECT COUNT(*) FROM emp a, emp b WHERE a.sal < b.sal`)
	// Five distinct salaries give C(5,2) = 10 ordered pairs.
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("non-equi join count = %v", res.Rows[0][0].Int())
	}
}

func TestThreeWayJoin(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	mustExec(t, s, `CREATE TABLE loc (dno INT, city VARCHAR(10))`)
	mustExec(t, s, `INSERT INTO loc VALUES (1, 'sf'), (2, 'ny')`)
	res := mustExec(t, s, `
		SELECT e.ename, d.dname, l.city
		FROM emp e, dept d, loc l
		WHERE e.dno = d.dno AND d.dno = l.dno AND e.sal > 100
		ORDER BY e.ename`)
	got := grid(res)
	if len(got) != 2 || got[0][2] != "sf" || got[1][2] != "ny" {
		t.Errorf("three-way join = %v", got)
	}
}

// TestCrossTypeEquiJoin pins the hash-join guard: INT = FLOAT joins
// must use comparison semantics (1 equals 1.0), which the hash path's
// formatted keys would miss; the planner must fall back to the nested
// loop.
func TestCrossTypeEquiJoin(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE ints (i INT)`)
	mustExec(t, s, `CREATE TABLE floats (f FLOAT)`)
	mustExec(t, s, `INSERT INTO ints VALUES (1), (2), (3)`)
	mustExec(t, s, `INSERT INTO floats VALUES (1.0), (2.5), (3.0)`)
	res := mustExec(t, s, `SELECT COUNT(*) FROM ints a, floats b WHERE a.i = b.f`)
	if res.Rows[0][0].Int() != 2 { // 1=1.0 and 3=3.0
		t.Errorf("cross-type equi join = %d, want 2", res.Rows[0][0].Int())
	}
	// And the plan indeed avoids the hash join.
	plan := mustExec(t, s, `EXPLAIN SELECT COUNT(*) FROM ints a, floats b WHERE a.i = b.f`)
	joined := ""
	for _, r := range plan.Rows {
		joined += r[0].Str() + "\n"
	}
	if !strings.Contains(joined, "nested loop") || strings.Contains(joined, "hash join") {
		t.Errorf("cross-type join plan:\n%s", joined)
	}
}

func TestNullJoinSemantics(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	// eve has dno NULL and must not match any department.
	res := mustExec(t, s, `SELECT COUNT(*) FROM emp e, dept d WHERE e.dno = d.dno AND e.ename = 'eve'`)
	if res.Rows[0][0].Int() != 0 {
		t.Error("NULL should not join")
	}
}

func TestGroupByHaving(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `
		SELECT dno, COUNT(*) AS n, SUM(sal) AS total, AVG(sal), MIN(sal), MAX(sal)
		FROM emp WHERE dno IS NOT NULL
		GROUP BY dno HAVING SUM(sal) > 150
		ORDER BY dno`)
	got := grid(res)
	if len(got) != 2 {
		t.Fatalf("groups = %v", got)
	}
	if got[0][1] != "2" || got[0][2] != "300" || got[0][3] != "150.0" {
		t.Errorf("group 1 = %v", got[0])
	}
	if got[1][2] != "200" || got[1][4] != "50" || got[1][5] != "150" {
		t.Errorf("group 2 = %v", got[1])
	}
}

func TestHavingOnlyAggregate(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	// The aggregate appears only in HAVING, not in the select list.
	res := mustExec(t, s, `SELECT dno FROM emp WHERE dno IS NOT NULL
		GROUP BY dno HAVING COUNT(*) > 1 ORDER BY dno`)
	got := grid(res)
	if len(got) != 2 || got[0][0] != "1" || got[1][0] != "2" {
		t.Errorf("having-only aggregate = %v", got)
	}
}

func TestOrderByAggregate(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	// Ordering by an aggregate that is not an output column.
	res := mustExec(t, s, `SELECT dno FROM emp WHERE dno IS NOT NULL
		GROUP BY dno ORDER BY SUM(sal) DESC`)
	got := grid(res)
	if len(got) != 2 || got[0][0] != "1" { // eng sums 300, sales 200
		t.Errorf("order by aggregate = %v", got)
	}
}

func TestGlobalAggregatesEmptyInput(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	res := mustExec(t, s, `SELECT COUNT(*), SUM(a), MIN(a) FROM t`)
	got := grid(res)
	if len(got) != 1 || got[0][0] != "0" || got[0][1] != "NULL" || got[0][2] != "NULL" {
		t.Errorf("empty aggregates = %v", got)
	}
	// But a grouped query over empty input has no groups.
	res = mustExec(t, s, `SELECT a, COUNT(*) FROM t GROUP BY a`)
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty input rows = %d", len(res.Rows))
	}
}

func TestCountDistinct(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `SELECT COUNT(DISTINCT dno) FROM emp`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("COUNT(DISTINCT dno) = %v (NULL must not count)", res.Rows[0][0].Int())
	}
	res = mustExec(t, s, `SELECT SUM(DISTINCT sal) FROM emp WHERE dno = 1`)
	if res.Rows[0][0].Int() != 300 {
		t.Errorf("SUM(DISTINCT) = %v", res.Rows[0][0].Int())
	}
}

func TestAggregatesSkipNulls(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (NULL), (3)`)
	res := mustExec(t, s, `SELECT COUNT(*), COUNT(a), AVG(a) FROM t`)
	got := grid(res)
	if got[0][0] != "3" || got[0][1] != "2" || got[0][2] != "2.0" {
		t.Errorf("null handling = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `SELECT DISTINCT dno FROM emp ORDER BY dno`)
	got := grid(res)
	if len(got) != 3 { // 1, 2, NULL
		t.Fatalf("distinct = %v", got)
	}
	if got[2][0] != "NULL" {
		t.Errorf("NULL should sort last: %v", got)
	}
}

func TestOrderByVariants(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	// By position, descending.
	res := mustExec(t, s, `SELECT ename, sal FROM emp ORDER BY 2 DESC`)
	if res.Rows[0][0].Str() != "eve" {
		t.Errorf("order by position desc: %v", grid(res))
	}
	// By alias.
	res = mustExec(t, s, `SELECT ename, sal * 2 AS double FROM emp ORDER BY double`)
	if res.Rows[0][0].Str() != "dan" {
		t.Errorf("order by alias: %v", grid(res))
	}
	// By an expression over the underlying scope not in the output.
	res = mustExec(t, s, `SELECT ename FROM emp ORDER BY sal DESC, ename`)
	if res.Rows[0][0].Str() != "eve" {
		t.Errorf("order by hidden column: %v", grid(res))
	}
	// Stable multi-key ordering.
	res = mustExec(t, s, `SELECT ename FROM emp ORDER BY dno, sal DESC`)
	if res.Rows[0][0].Str() != "bob" || res.Rows[1][0].Str() != "ann" {
		t.Errorf("multi-key order: %v", grid(res))
	}
}

func TestLimitOffset(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `SELECT eno FROM emp ORDER BY eno LIMIT 2 OFFSET 1`)
	got := grid(res)
	if len(got) != 2 || got[0][0] != "11" || got[1][0] != "12" {
		t.Errorf("limit/offset = %v", got)
	}
	res = mustExec(t, s, `SELECT eno FROM emp ORDER BY eno LIMIT 100 OFFSET 100`)
	if len(res.Rows) != 0 {
		t.Errorf("past-end offset = %v", grid(res))
	}
	if _, err := s.Exec(`SELECT eno FROM emp LIMIT -1`, nil); err == nil {
		t.Error("negative LIMIT should fail")
	}
	// LIMIT + OFFSET past the largest integer keeps every row after
	// the OFFSET, with and without a sort, plain and compound.
	for q, want := range map[string]int{
		`SELECT eno FROM emp LIMIT 9223372036854775807 OFFSET 1`:                                       4,
		`SELECT eno FROM emp ORDER BY eno LIMIT 9223372036854775807 OFFSET 1`:                          4,
		`SELECT eno FROM emp UNION SELECT dno FROM dept ORDER BY 1 LIMIT 9223372036854775807 OFFSET 1`: 7,
		`SELECT eno FROM emp ORDER BY eno LIMIT 1 OFFSET 9223372036854775807`:                          0,
	} {
		if res, err := s.Exec(q, nil); err != nil || len(res.Rows) != want {
			t.Errorf("%s: err = %v, want %d rows", q, err, want)
		}
	}
}

func TestSubqueries(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	// Correlated EXISTS.
	res := mustExec(t, s, `
		SELECT dname FROM dept d
		WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dno = d.dno)
		ORDER BY dname`)
	got := grid(res)
	if len(got) != 2 || got[0][0] != "eng" || got[1][0] != "sales" {
		t.Errorf("EXISTS = %v", got)
	}
	// NOT EXISTS.
	res = mustExec(t, s, `
		SELECT dname FROM dept d
		WHERE NOT EXISTS (SELECT 1 FROM emp e WHERE e.dno = d.dno)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "empty" {
		t.Errorf("NOT EXISTS = %v", grid(res))
	}
	// IN subquery.
	res = mustExec(t, s, `SELECT ename FROM emp WHERE dno IN (SELECT dno FROM dept WHERE dname = 'eng')`)
	if len(res.Rows) != 2 {
		t.Errorf("IN subquery = %v", grid(res))
	}
	// Correlated scalar subquery.
	res = mustExec(t, s, `
		SELECT d.dname, (SELECT COUNT(*) FROM emp e WHERE e.dno = d.dno) AS n
		FROM dept d ORDER BY d.dno`)
	got = grid(res)
	if got[0][1] != "2" || got[2][1] != "0" {
		t.Errorf("scalar subquery = %v", got)
	}
	// Scalar subquery with multiple rows errors.
	if _, err := s.Exec(`SELECT (SELECT eno FROM emp) FROM dept`, nil); err == nil {
		t.Error("multi-row scalar subquery should fail")
	}
}

func TestDerivedTable(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `
		SELECT t.dno, t.total FROM
		(SELECT dno, SUM(sal) AS total FROM emp WHERE dno IS NOT NULL GROUP BY dno) AS t
		WHERE t.total > 250`)
	got := grid(res)
	if len(got) != 1 || got[0][0] != "1" || got[0][1] != "300" {
		t.Errorf("derived table = %v", got)
	}
	if _, err := s.Exec(`SELECT * FROM (SELECT 1)`, nil); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestCaseBetweenInLike(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `
		SELECT ename,
			CASE WHEN sal >= 200 THEN 'high' WHEN sal >= 100 THEN 'mid' ELSE 'low' END AS band,
			CASE dno WHEN 1 THEN 'one' ELSE 'other' END AS d
		FROM emp ORDER BY eno`)
	got := grid(res)
	if got[0][1] != "mid" || got[1][1] != "high" || got[3][1] != "low" {
		t.Errorf("searched case = %v", got)
	}
	if got[0][2] != "one" || got[2][2] != "other" {
		t.Errorf("operand case = %v", got)
	}
	// NULL operand matches no WHEN (eve's dno).
	if got[4][2] != "other" {
		t.Errorf("NULL case operand = %v", got[4])
	}

	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE sal BETWEEN 100 AND 200`)
	if res.Rows[0][0].Int() != 3 {
		t.Errorf("BETWEEN = %v", res.Rows[0][0].Int())
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE sal NOT BETWEEN 100 AND 200`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("NOT BETWEEN = %v", res.Rows[0][0].Int())
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE eno IN (10, 12, 99)`)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("IN list = %v", res.Rows[0][0].Int())
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE ename LIKE '%a%'`)
	if res.Rows[0][0].Int() != 3 { // ann, cat, dan
		t.Errorf("LIKE = %v", res.Rows[0][0].Int())
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM emp WHERE ename LIKE '_a_'`)
	if res.Rows[0][0].Int() != 2 { // cat, dan
		t.Errorf("LIKE underscores = %v", res.Rows[0][0].Int())
	}
}

func TestThreeValuedLogic(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT)`)
	mustExec(t, s, `INSERT INTO t VALUES (1), (NULL)`)
	// NULL = NULL is UNKNOWN, filtered out.
	res := mustExec(t, s, `SELECT COUNT(*) FROM t WHERE a = NULL`)
	if res.Rows[0][0].Int() != 0 {
		t.Error("a = NULL must match nothing")
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM t WHERE a IS NULL`)
	if res.Rows[0][0].Int() != 1 {
		t.Error("IS NULL must match the NULL row")
	}
	res = mustExec(t, s, `SELECT COUNT(*) FROM t WHERE a IS NOT NULL`)
	if res.Rows[0][0].Int() != 1 {
		t.Error("IS NOT NULL must match the non-NULL row")
	}
	// NOT (NULL comparison) stays UNKNOWN.
	res = mustExec(t, s, `SELECT COUNT(*) FROM t WHERE NOT (a = 1)`)
	if res.Rows[0][0].Int() != 0 {
		t.Error("NOT UNKNOWN must remain UNKNOWN")
	}
	// OR short-circuit truth table.
	res = mustExec(t, s, `SELECT COUNT(*) FROM t WHERE a = 1 OR a = 2`)
	if res.Rows[0][0].Int() != 1 {
		t.Error("OR over UNKNOWN")
	}
	// x IN (NULL) is UNKNOWN, NOT IN (list with NULL) excludes all.
	res = mustExec(t, s, `SELECT COUNT(*) FROM t WHERE a NOT IN (2, NULL)`)
	if res.Rows[0][0].Int() != 0 {
		t.Error("NOT IN with NULL must match nothing")
	}
	// COALESCE.
	res = mustExec(t, s, `SELECT COALESCE(a, 42) FROM t ORDER BY 1`)
	got := grid(res)
	if got[0][0] != "1" || got[1][0] != "42" {
		t.Errorf("COALESCE = %v", got)
	}
}

// TestArmsUnify pins the arm rule: CASE arms, COALESCE arguments and the
// columns of set-operation operands take one common type, so a result
// column's values agree with its type. INT and FLOAT arms give FLOAT on
// every row; INT and VARCHAR arms are a bind-time error naming both,
// even over a table with no rows.
func TestArmsUnify(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	for _, q := range []string{
		`SELECT CASE WHEN sal > 150 THEN 1 ELSE 2.5 END FROM emp`,
		`SELECT COALESCE(dno, 2.5) FROM emp`,
		`SELECT x + 1 FROM (SELECT sal AS x FROM emp UNION SELECT 2.5) u`,
	} {
		res := mustExec(t, s, q)
		if res.Types[0] != types.TFloat {
			t.Errorf("%s: column type %s, want FLOAT", q, res.Types[0])
		}
		for _, r := range res.Rows {
			if r[0].Null || r[0].T != types.TFloat {
				t.Errorf("%s: row value %s %s, want a FLOAT", q, r[0].T, r[0].Format())
			}
		}
	}
	mustExec(t, s, `CREATE TABLE none (a INT)`)
	for _, q := range []string{
		`SELECT CASE WHEN a > 50 THEN 1 ELSE 'x' END FROM none`,
		`SELECT COALESCE(a, 'x') FROM none`,
		`SELECT x FROM (SELECT a AS x FROM none UNION SELECT 'x') u`,
	} {
		_, err := s.Exec(q, nil)
		if err == nil || !strings.Contains(err.Error(), "INT") || !strings.Contains(err.Error(), "VARCHAR") {
			t.Errorf("%s: err = %v, want a type error naming INT and VARCHAR", q, err)
		}
	}
}

func TestStarExpansion(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `SELECT * FROM dept ORDER BY dno LIMIT 1`)
	if len(res.Cols) != 2 || res.Cols[0] != "dno" || res.Cols[1] != "dname" {
		t.Errorf("star cols = %v", res.Cols)
	}
	res = mustExec(t, s, `SELECT d.*, e.ename FROM dept d, emp e WHERE d.dno = e.dno AND e.eno = 10`)
	if len(res.Cols) != 3 || res.Cols[2] != "ename" {
		t.Errorf("qualified star cols = %v", res.Cols)
	}
	if _, err := s.Exec(`SELECT x.* FROM dept d`, nil); err == nil {
		t.Error("unknown qualifier in star should fail")
	}
}

func TestAmbiguityAndDuplicateBindings(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	if _, err := s.Exec(`SELECT dno FROM emp, dept`, nil); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column error = %v", err)
	}
	if _, err := s.Exec(`SELECT 1 FROM emp, emp`, nil); err == nil ||
		!strings.Contains(err.Error(), "alias") {
		t.Errorf("duplicate binding error = %v", err)
	}
	// Self-join with aliases works.
	mustExec(t, s, `SELECT a.eno, b.eno FROM emp a, emp b WHERE a.eno < b.eno`)
}

func TestSelectWithoutFrom(t *testing.T) {
	s := newDB(t)
	res := mustExec(t, s, `SELECT 1 + 2 AS three, 'x' || 'y' AS xy, 7 % 3`)
	got := grid(res)
	if got[0][0] != "3" || got[0][1] != "xy" || got[0][2] != "1" {
		t.Errorf("constants = %v", got)
	}
	if res.Cols[0] != "three" {
		t.Errorf("alias = %v", res.Cols)
	}
}

func TestArithmeticErrors(t *testing.T) {
	s := newDB(t)
	if _, err := s.Exec(`SELECT 1 / 0`, nil); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := s.Exec(`SELECT 'a' + 1`, nil); err == nil {
		t.Error("string + int should fail resolution")
	}
	// Mixed INT/FLOAT arithmetic resolves via implicit cast.
	res := mustExec(t, s, `SELECT 1 + 2.5`)
	if res.Rows[0][0].Format() != "3.5" {
		t.Errorf("mixed arithmetic = %v", grid(res))
	}
	// NULL propagates through arithmetic.
	res = mustExec(t, s, `SELECT 1 + NULL`)
	if !res.Rows[0][0].Null {
		t.Error("1 + NULL should be NULL")
	}
}

func TestParams(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res, err := s.Exec(`SELECT COUNT(*) FROM emp WHERE sal > :min AND ename LIKE :pat`,
		map[string]types.Value{"min": types.NewInt(100), "pat": types.NewString("%a%")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 { // cat (150)
		t.Errorf("param query = %v", res.Rows[0][0].Int())
	}
	if _, err := s.Exec(`SELECT :missing`, nil); err == nil {
		t.Error("missing parameter should fail")
	}
}

func TestGroupByExpression(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	// Group by a computed expression, repeated in the select list.
	res := mustExec(t, s, `
		SELECT sal / 100, COUNT(*) FROM emp GROUP BY sal / 100 ORDER BY 1`)
	got := grid(res)
	if len(got) != 4 {
		t.Fatalf("expr groups = %v", got)
	}
	if got[0][0] != "0" || got[0][1] != "1" {
		t.Errorf("group rows = %v", got)
	}
}

func TestAggregateInWhereRejected(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	if _, err := s.Exec(`SELECT ename FROM emp WHERE COUNT(*) > 1`, nil); err == nil {
		t.Error("aggregate in WHERE should fail")
	}
	if _, err := s.Exec(`SELECT SUM(COUNT(*)) FROM emp`, nil); err == nil {
		t.Error("nested aggregate should fail")
	}
	if _, err := s.Exec(`SELECT ename FROM emp GROUP BY dno`, nil); err == nil {
		t.Error("non-grouped column in grouped select should fail")
	}
}

func TestInsertSelectWithJoin(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	mustExec(t, s, `CREATE TABLE flat (ename VARCHAR(20), dname VARCHAR(20))`)
	mustExec(t, s, `INSERT INTO flat SELECT e.ename, d.dname FROM emp e, dept d WHERE e.dno = d.dno`)
	res := mustExec(t, s, `SELECT COUNT(*) FROM flat`)
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("insert-select = %v", res.Rows[0][0].Int())
	}
}

func TestUnionViaGroupUnionOverJoin(t *testing.T) {
	// A temporal query mixing joins and element algebra end to end.
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE shift (worker VARCHAR(10), site VARCHAR(10), onduty Element)`)
	mustExec(t, s, `INSERT INTO shift VALUES
		('w1', 'a', '{[1999-01-01, 1999-01-10]}'),
		('w1', 'b', '{[1999-01-05, 1999-01-15]}'),
		('w2', 'a', '{[1999-02-01, 1999-02-05]}')`)
	res := mustExec(t, s, `
		SELECT worker, length(group_union(onduty)) AS busy
		FROM shift GROUP BY worker ORDER BY worker`)
	got := grid(res)
	if got[0][1] != "14" || got[1][1] != "4" {
		t.Errorf("coalesced shift lengths = %v", got)
	}
}

// TestFromlessCorrelatedSubquery pins a fuzzer-found bug: a FROM-less
// subquery whose WHERE references the outer row must still occupy one
// scope level, or outer references mis-index the scope stack.
func TestFromlessCorrelatedSubquery(t *testing.T) {
	s := newDB(t)
	seedEmp(t, s)
	res := mustExec(t, s, `
		SELECT ename FROM emp WHERE eno IN (SELECT 10 WHERE sal = 100)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "ann" {
		t.Errorf("correlated FROM-less subquery = %v", grid(res))
	}
	res = mustExec(t, s, `SELECT ename FROM emp WHERE EXISTS (SELECT 1 WHERE sal > 250)`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "eve" {
		t.Errorf("correlated FROM-less EXISTS = %v", grid(res))
	}
}

func TestResultTypesInferred(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, c Chronon)`)
	mustExec(t, s, `INSERT INTO t VALUES (1, '1999-01-01')`)
	res := mustExec(t, s, `SELECT a, c FROM t`)
	if res.Types[0] != types.TInt {
		t.Errorf("inferred type 0 = %v", res.Types[0])
	}
	if res.Types[1].Name != "Chronon" {
		t.Errorf("inferred type 1 = %v", res.Types[1])
	}
}

func TestFormatResult(t *testing.T) {
	s := newDB(t)
	mustExec(t, s, `CREATE TABLE t (a INT, b VARCHAR(5))`)
	mustExec(t, s, `INSERT INTO t VALUES (1, 'x')`)
	res := mustExec(t, s, `SELECT a, b FROM t`)
	out := exec.FormatResult(res)
	if !strings.Contains(out, "a | b") || !strings.Contains(out, "(1 rows)") {
		t.Errorf("FormatResult = %q", out)
	}
}
