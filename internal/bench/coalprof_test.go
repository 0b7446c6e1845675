package bench

import (
	"testing"

	"tip/internal/workload"
)

func BenchmarkCoalesceQuery(b *testing.B) {
	data := workload.Generate(workload.DefaultConfig(2000))
	sess, bl := NewTIPDB()
	if err := workload.LoadTIP(sess, bl, data); err != nil {
		b.Fatal(err)
	}
	q := `SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient`
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exec(q, nil); err != nil {
			b.Fatal(err)
		}
	}
}
