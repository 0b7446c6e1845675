package repl_test

// A replica seen through the standard client surface: reads served,
// writes refused typed, and its position readable from Conn.Stats()
// beside the primary's, which is how a caller tells how far behind a
// replica is.

import (
	"errors"
	"fmt"
	"testing"

	"tip/internal/blade"
	"tip/internal/client"
	"tip/internal/core"
	"tip/internal/repl"
)

func connect(t *testing.T, addr string) *client.Conn {
	t.Helper()
	reg := blade.NewRegistry()
	core.MustRegister(reg)
	c, err := client.Connect(addr, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func statsValue(t *testing.T, c *client.Conn, name string) float64 {
	t.Helper()
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := snap.Get(name)
	if !ok {
		t.Fatalf("%s missing from stats", name)
	}
	return v
}

func TestReplicaPositionOverStats(t *testing.T) {
	p := startPrimary(t)
	d := &blockableDialer{}
	r := startReplica(t, p.srv.Addr(), repl.WithDialer(d.dial))
	pc, rc := connect(t, p.srv.Addr()), connect(t, r.srv.Addr())

	if _, err := pc.Exec(`CREATE TABLE t (a INT)`, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := pc.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	r.converge(t, p)

	flushed := statsValue(t, pc, "wal.flushed_seq")
	if flushed == 0 {
		t.Fatal("primary wal.flushed_seq = 0 after six statements")
	}
	if applied := statsValue(t, rc, "repl.applied_seq"); applied != flushed {
		t.Fatalf("replica repl.applied_seq = %v, primary wal.flushed_seq = %v", applied, flushed)
	}
	res, err := rc.Exec(`SELECT COUNT(*) FROM t`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 5 {
		t.Fatalf("replica count = %d, want 5", got)
	}
	if _, err := rc.Exec(`INSERT INTO t VALUES (9)`, nil); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("write on replica: err = %v, want ErrReadOnly", err)
	}

	// Cut the replica off: the primary moves on, and the gap between the
	// two positions shows the replica is stale.
	d.partition(true)
	if _, err := pc.Exec(`INSERT INTO t VALUES (5)`, nil); err != nil {
		t.Fatal(err)
	}
	applied := statsValue(t, rc, "repl.applied_seq")
	if now := statsValue(t, pc, "wal.flushed_seq"); applied >= now {
		t.Fatalf("partitioned replica at seq %v, primary at %v: staleness not visible", applied, now)
	}
}
