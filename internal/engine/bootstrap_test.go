package engine_test

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"tip/internal/engine"
	"tip/internal/protocol"
	"tip/internal/repl"
	"tip/internal/server"
)

// A replica bootstrap over the wire under a lowered frame bound: a
// small database ships in at least ten frames, each within the bound,
// numbered S+1..S+k after the primary's position S and ending with the
// empty end frame; a replica loads the stream and converges.
func TestBootstrapStreamsBoundedFrames(t *testing.T) {
	bound := *engine.SnapshotFrameBytes
	// Registered first, so it runs after the server and the replica
	// have stopped reading the bound.
	t.Cleanup(func() { *engine.SnapshotFrameBytes = bound })
	*engine.SnapshotFrameBytes = 512
	db, s := openDir(t, t.TempDir())
	mustExec(t, s, `CREATE TABLE t (a INT, name VARCHAR(40))`)
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf(`INSERT INTO t VALUES (%d, 'name %d')`, i, i))
	}
	srv, err := server.Listen(db, "127.0.0.1:0", server.WithReplication(repl.NewPrimary(db)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	r, w := bufio.NewReader(nc), bufio.NewWriter(nc)
	for _, req := range [][]byte{protocol.EncodeHello("bootstrap-test"), protocol.EncodeSnapshotRequest()} {
		if err := protocol.WriteFrame(w, req); err != nil {
			t.Fatal(err)
		}
	}
	if frame, err := protocol.ReadFrame(r); err != nil || frame[0] != protocol.MsgWelcome {
		t.Fatalf("handshake: %x, %v", frame, err)
	}
	frame, err := protocol.ReadFrame(r)
	if err != nil || frame[0] != protocol.MsgReplStatus {
		t.Fatalf("snapshot reply: %x, %v", frame, err)
	}
	st, err := protocol.DecodeReplStatus(frame[1:])
	if err != nil || st.AppliedSeq != db.WALSeq() {
		t.Fatalf("snapshot position %+v (%v), log at %d", st, err, db.WALSeq())
	}
	for n := uint64(1); ; n++ {
		frame, err := protocol.ReadFrame(r)
		if err != nil || frame[0] != protocol.MsgWALFrame {
			t.Fatalf("snapshot frame %d: %x, %v", n, frame, err)
		}
		seq, payload, err := engine.DecodeWALFrameBody(frame[1:])
		if err != nil || seq != st.AppliedSeq+n || len(payload) > 512 {
			t.Fatalf("snapshot frame %d: seq %d, %d-byte payload, %v", n, seq, len(payload), err)
		}
		if len(payload) == 0 {
			if n < 10 {
				t.Fatalf("the snapshot took %d frames, want >= 10", n)
			}
			break
		}
	}

	replica := engine.New(db.Registry())
	rep := repl.StartReplica(replica, srv.Addr())
	t.Cleanup(rep.Close)
	if !rep.WaitForSeq(db.WALSeq(), 10*time.Second) {
		t.Fatalf("replica stuck at seq %d, want %d", rep.AppliedSeq(), db.WALSeq())
	}
	if got := count(t, replica.NewSession(), `SELECT COUNT(*) FROM t`); got != 200 {
		t.Fatalf("replica rows = %d, want 200", got)
	}
}
