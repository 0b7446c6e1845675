package repl_test

import (
	"testing"
	"time"
)

// BenchmarkReplicaApply times the replication path end to end over
// loopback: an INSERT appended on the primary, shipped from its log
// file, and applied by a converged replica. An operation is one frame;
// the clock stops when the replica has applied all b.N of them.
func BenchmarkReplicaApply(b *testing.B) {
	p := startPrimary(b)
	p.mustExec(b, `CREATE TABLE t (a INT)`)
	r := startReplica(b, p.srv.Addr())
	r.converge(b, p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.mustExec(b, `INSERT INTO t VALUES (1)`)
	}
	if want := p.db.WALSeq(); !r.rep.WaitForSeq(want, time.Minute) {
		b.Fatalf("replica stuck at seq %d, want %d", r.rep.AppliedSeq(), want)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
}
