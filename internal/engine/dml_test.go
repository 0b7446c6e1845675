package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"tip/internal/temporal"
	"tip/internal/types"
)

// BenchmarkDMLByKey times SELECT, UPDATE and DELETE of one row by a
// hash-indexed key on a 20,000-row table, without and with a period
// index on another column. UPDATE and DELETE find their row through the
// hash index as the SELECT does; the period index adds its own upkeep to
// every write. DELETE puts its row back outside the timer.
func BenchmarkDMLByKey(b *testing.B) {
	const rows = 20000
	base := temporal.MustDate(1998, 1, 1)
	valid := func(k int) string {
		start := base + temporal.Chronon(k%1000*86400)
		return temporal.MustPeriod(start, start+86400-1).Element().String()
	}
	for _, fx := range []struct {
		name   string
		period bool
	}{{"hash", false}, {"hash+period", true}} {
		b.Run(fx.name, func(b *testing.B) {
			_, s := newDB(b)
			mustExec(b, s, `CREATE TABLE t (k INT, v INT, valid Element)`)
			for lo := 0; lo < rows; lo += 500 {
				vals := make([]string, 0, 500)
				for k := lo; k < lo+500; k++ {
					vals = append(vals, fmt.Sprintf("(%d, %d, '%s')", k, k%100, valid(k)))
				}
				mustExec(b, s, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
			}
			mustExec(b, s, `CREATE INDEX tk ON t (k)`)
			if fx.period {
				mustExec(b, s, `CREATE INDEX tv ON t (valid) USING PERIOD`)
			}
			key := func(i int) map[string]types.Value {
				return map[string]types.Value{"k": types.NewInt(int64(i * 7919 % rows))}
			}
			for _, op := range []struct{ name, sql string }{
				{"select", `SELECT v FROM t WHERE k = :k`},
				{"update", `UPDATE t SET v = v + 1 WHERE k = :k`},
				{"delete", `DELETE FROM t WHERE k = :k`},
			} {
				b.Run(op.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := s.Exec(op.sql, key(i))
						if err != nil {
							b.Fatal(err)
						}
						if res.Affected+len(res.Rows) != 1 {
							b.Fatalf("%s found %d rows, want 1", op.sql, res.Affected+len(res.Rows))
						}
						if op.name == "delete" {
							b.StopTimer()
							k := key(i)["k"].Int()
							mustExec(b, s, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, '%s')", k, k%100, valid(int(k))))
							b.StartTimer()
						}
					}
				})
			}
		})
	}
}
