package parse

import (
	"testing"

	"tip/internal/sql/parse/refparse"
)

const benchQuery = `SELECT doctor, patient, dosage FROM Prescription WHERE dosage > 10 AND drug = 'Diabeta'`

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefParse times the parity baseline: old grammar fed by the
// new lexer.
func BenchmarkRefParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := refparse.Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}
