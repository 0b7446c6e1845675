package protocol_test

import (
	"bytes"
	"errors"
	"testing"

	"tip/internal/protocol"
)

func TestSubscribeRoundTrip(t *testing.T) {
	msg := protocol.EncodeSubscribe(42, "replica-7", "123-abc")
	if msg[0] != protocol.MsgSubscribe {
		t.Fatalf("kind = %d", msg[0])
	}
	from, name, runID, err := protocol.DecodeSubscribe(msg[1:])
	if err != nil {
		t.Fatal(err)
	}
	if from != 42 || name != "replica-7" || runID != "123-abc" {
		t.Fatalf("decoded (%d, %q, %q)", from, name, runID)
	}
	if _, _, _, err := protocol.DecodeSubscribe(append(msg[1:], 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, _, _, err := protocol.DecodeSubscribe(nil); !errors.Is(err, protocol.ErrProtocol) {
		t.Fatalf("empty body: %v", err)
	}
}

func TestWALFrameMsgWrapsBody(t *testing.T) {
	body := []byte{0xde, 0xad, 0xbe, 0xef}
	msg := protocol.EncodeWALFrameMsg(body)
	if msg[0] != protocol.MsgWALFrame || !bytes.Equal(msg[1:], body) {
		t.Fatalf("frame msg = %x", msg)
	}
}

func TestReplStatusRoundTrip(t *testing.T) {
	st := protocol.ReplStatus{Role: protocol.RoleReplica, AppliedSeq: 1 << 40, RunID: "r"}
	msg := protocol.EncodeReplStatus(st)
	if msg[0] != protocol.MsgReplStatus {
		t.Fatalf("kind = %d", msg[0])
	}
	got, err := protocol.DecodeReplStatus(msg[1:])
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("decoded %+v, want %+v", got, st)
	}
	if _, err := protocol.DecodeReplStatus(append(msg[1:], 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := protocol.DecodeReplStatus(nil); err == nil {
		t.Fatal("empty report accepted")
	}
}
