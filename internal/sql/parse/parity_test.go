package parse

import (
	"reflect"
	"testing"

	"tip/internal/sql/parse/refparse"
)

// parityCorpus drives the differential tests against the frozen
// recursive-descent parser in refparse: every statement the repo's
// tests, examples and workload generator use, plus the grammar edge
// cases the Pratt rewrite had to preserve bug-for-bug. Inputs that must
// fail are as valuable here as ones that must parse — error presence
// has to agree too.
var parityCorpus = []string{
	// The paper's §2 statements.
	`CREATE TABLE Prescription (
		doctor CHAR(20), patient CHAR(20), patientdob Chronon,
		drug CHAR(20), dosage INT, frequency Span, valid Element)`,
	`INSERT INTO Prescription VALUES
		('Dr.Pepper', 'Mr.Showbiz', '1963-08-13', 'Diabeta', 1, '0 08:00:00', '{[1999-10-01, NOW]}')`,
	`SELECT patient FROM Prescription
	 WHERE drug = 'Tylenol' AND start(valid) - patientdob < '7 00:00:00'::Span * :w`,
	`SELECT p1.*, p2.*, intersect(p1.valid, p2.valid)
	 FROM Prescription p1, Prescription p2
	 WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' AND overlaps(p1.valid, p2.valid)`,
	`SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`,

	// Engine fuzz corpus and example queries.
	`UPDATE Prescription SET dosage = dosage + 1 WHERE start(valid) > '1999-06-01'::Chronon`,
	`DELETE FROM Prescription WHERE isempty(valid)`,
	`SELECT CASE WHEN dosage > 1 THEN 'hi' ELSE 'lo' END FROM Prescription ORDER BY 1 DESC LIMIT 3`,
	`SELECT drug FROM Prescription UNION SELECT doctor FROM Prescription EXCEPT SELECT 'x'`,
	`SELECT * FROM Prescription WHERE patient IN (SELECT patient FROM Prescription WHERE dosage > 2)`,
	`CREATE INDEX zz ON Prescription (valid) USING PERIOD`,
	`EXPLAIN SELECT * FROM Prescription WHERE overlaps(valid, '[1999-01-01, 1999-02-01]')`,
	`EXPLAIN ANALYZE SELECT COUNT(*) FROM Prescription`,
	`SELECT drug, valid, length(valid) FROM Prescription WHERE patient = :p ORDER BY drug`,
	`SELECT employee, length(group_union(valid)) AS tenure FROM AssignmentHistory GROUP BY employee`,
	`SELECT a.dept, intersect(a.valid, b.valid) AS together
	 FROM AssignmentHistory a INNER JOIN AssignmentHistory b ON a.dept = b.dept`,
	`SELECT vendor, kind, end(valid) AS ends FROM Contract WHERE contains(valid, now()) ORDER BY vendor`,
	`SET NOW = '2000-06-30'`,
	`SET NOW = DEFAULT`,
	`SET STATEMENT_TIMEOUT = 100`,
	`SET STATEMENT_TIMEOUT = DEFAULT`,
	`SET STATEMENT_MEMORY = 1048576`,
	`SET STATEMENT_MEMORY = '64MB'`,
	`SET STATEMENT_MEMORY = DEFAULT`,

	// Statement variety.
	`CREATE TABLE IF NOT EXISTS t (a INT NOT NULL, b DECIMAL(10, 2))`,
	`DROP TABLE IF EXISTS t`, `DROP TABLE t`, `DROP INDEX iv`,
	`CREATE INDEX ia ON t (a)`, `CREATE INDEX ih ON t (a) USING HASH`,
	`BEGIN`, `BEGIN WORK`, `BEGIN TRANSACTION`, `COMMIT`, `COMMIT WORK`, `ROLLBACK WORK`,
	`SHOW TABLES`, `DESCRIBE t`, `desc t`,
	`INSERT INTO t (a, b) VALUES (1, 2), (3, 4)`,
	`INSERT INTO t SELECT a FROM u WHERE a > 0 ORDER BY a LIMIT 5`,
	`UPDATE t SET a = 1, b = b + 1 WHERE c = 2`,

	// Select-clause and expression edge cases.
	`select A, b As C from T t1 where X = 'y' ;`,
	`SELECT * FROM t LIMIT 1 OFFSET 0`,
	`SELECT -(-1), +2, -a, -2.5, - - 3 FROM t`,
	`SELECT a FROM t WHERE a BETWEEN -1 AND +1`,
	`SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2 OR b NOT LIKE 'x%'`,
	`SELECT 'it''s', '' FROM t`,
	`SELECT f(), g(1), h(1, 2, 3), COUNT(*), COUNT(DISTINCT a) FROM t`,
	`SELECT CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END FROM t`,
	`SELECT ((1 + 2)) * 3`,
	`SELECT a FROM t WHERE NOT NOT a = 1`,
	`SELECT a FROM t WHERE NOT a = 1 AND NOT (b OR c)`,
	`SELECT x.a, y.a FROM t x, t y WHERE x.a = y.a`,
	`SELECT 1 UNION ALL SELECT 2 UNION SELECT 3 ORDER BY 1 LIMIT 2`,
	`SELECT a FROM t CROSS JOIN u LEFT OUTER JOIN v ON u.k = v.k`,
	`SELECT a FROM t LEFT JOIN u ON t.k = u.k WHERE u.k IS NULL`,
	`INSERT INTO t VALUES (NULL), (TRUE), (FALSE)`,
	`UPDATE t SET a = CASE WHEN b THEN 1 ELSE 2 END`,
	`SELECT a FROM t WHERE e IN (SELECT e FROM u WHERE u.k = t.k)`,
	`SELECT x.n FROM (SELECT COUNT(*) AS n FROM t) AS x`,
	`SELECT CAST(a AS INT), b::VARCHAR(10)::Element FROM t`,
	`SELECT 1 + 2 * 3 - 4 / 5 % 6, a || b || 'c'`,
	`SELECT a = b = c, 1 < 2 <= 3, x != y, x <> y`,
	`SELECT a::END FROM t`,                      // type names may be reserved words
	`SELECT all a from t`,                       // ALL quantifier on a plain select
	`SELECT a all FROM t`,                       // ALL is not reserved, so it aliases
	`SELECT intersect(a, b), left(s, 1) FROM t`, // reserved words as call names
	`SELECT t.* FROM t`, `SELECT from.* FROM from`,
	`SELECT a NOT IN (1, 2) FROM t`,
	`SELECT 1 WHERE 2 BETWEEN 1 + 1 AND 3 * 1`,
	`SELECT CASE WHEN a THEN 1 ELSE 2 END + 1`,
	`SELECT EXISTS (SELECT 1 FROM t), (SELECT MAX(a) FROM t)`,
	`SELECT a FROM t WHERE b LIKE 'x' || '%'`,
	`SELECT DISTINCT a, b AS bee, t.* FROM t u, v
		WHERE a > 1 GROUP BY a, b HAVING COUNT(*) > 2
		ORDER BY a DESC, 2 ASC LIMIT 10 OFFSET 5`,
	"SELECT a -- comment\nFROM t",

	// Error-path agreement: almost all of these fail in both parsers
	// (NOT(b) is the exception — call syntax makes it legal below the
	// boolean levels). Includes the lexer bug-sweep cases.
	``, `;`, `GIBBERISH`, `SELECT`, `CREATE`, `CREATE VIEW v`, `DROP`,
	`SELECT FROM t`, `SELECT a FROM`, `SELECT a FROM t WHERE`,
	`SELECT t. FROM t`, `SELECT a AS FROM t`, `SELECT select.x FROM t`,
	`SELECT t.from FROM t`, `SELECT NOT`, `SELECT NOT()`,
	`SELECT a WHERE 1 = NOT b`, `SELECT a WHERE 1 = NOT(b)`,
	`SELECT a NOT`, `SELECT a NOT 1`,
	`SELECT 1 +`, `SELECT a BETWEEN 1`, `SELECT a BETWEEN 1 AND`,
	`SELECT a BETWEEN NOT b AND c`,
	`SELECT a IN`, `SELECT a IN (`, `SELECT a IN ()`,
	`SELECT CASE END`, `SELECT CASE(x) WHEN 1 THEN 2 END`,
	`SELECT CAST(a INT)`, `SELECT f(`, `SELECT a::`, `SELECT ::INT`,
	`SELECT .5`, `SELECT 1e`, `SELECT 1E+`, `SELECT 1e FROM t`,
	`SELECT 'unterminated`, `SELECT :`, `SELECT @x`, `SELECT a | b`, `SELECT a ! b`,
	`SELECT 99999999999999999999`, `SELECT 1 2`,
	`SELECT a FROM t UNION`, `SELECT a FROM t LEFT u ON 1`,
	`SELECT a FROM (SELECT 1)`, `SELECT 1 FROM a INNER b`,
	`INSERT INTO t SET a = 1`, `UPDATE t WHERE a = 1`,
	`CREATE INDEX i ON t (a) USING BTREE`, `SET timezone = 'utc'`,
	`SELECT 1; SELECT @`, `SELECT a; 1e`,
}

// TestParseParity runs every corpus statement through the production
// parser and the frozen reference parser: error presence must agree,
// and when both succeed the ASTs must be deeply equal.
func TestParseParity(t *testing.T) {
	for _, q := range parityCorpus {
		got, gotErr := Parse(q)
		want, wantErr := refparse.Parse(q)
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("Parse(%q): err=%v, refparse err=%v", q, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("Parse(%q):\n got  %#v\n want %#v", q, got, want)
		}
	}
}

// TestParseScriptParity checks the script splitter end to end,
// including the per-statement source text it reports.
func TestParseScriptParity(t *testing.T) {
	scripts := []string{
		`CREATE TABLE t (a INT); INSERT INTO t VALUES (1);; SELECT * FROM t;`,
		`  SELECT 1 ;
		   SELECT 2`,
		`SELECT 1 SELECT 2`,
		`;;;`,
		`SELECT 1; SELECT @`,
		`BEGIN; UPDATE t SET a = 1 WHERE b; COMMIT`,
	}
	for _, q := range scripts {
		got, gotErr := ParseScriptParts(q)
		want, wantErr := refparse.ParseScriptParts(q)
		if (gotErr != nil) != (wantErr != nil) {
			t.Errorf("ParseScriptParts(%q): err=%v, refparse err=%v", q, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if len(got) != len(want) {
			t.Errorf("ParseScriptParts(%q): %d parts, refparse %d", q, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i].SQL != want[i].SQL {
				t.Errorf("ParseScriptParts(%q) part %d SQL = %q, refparse %q", q, i, got[i].SQL, want[i].SQL)
			}
			if !reflect.DeepEqual(got[i].Stmt, want[i].Stmt) {
				t.Errorf("ParseScriptParts(%q) part %d:\n got  %#v\n want %#v", q, i, got[i].Stmt, want[i].Stmt)
			}
		}
	}
}
