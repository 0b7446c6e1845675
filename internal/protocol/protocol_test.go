package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"

	"tip/internal/blade"
	"tip/internal/core"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

func reg(t *testing.T) (*blade.Registry, *core.Blade) {
	t.Helper()
	r := blade.NewRegistry()
	b, err := core.Register(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, b
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	payloads := [][]byte{{1, 2, 3}, {}, []byte("hello frames")}
	for _, p := range payloads {
		if err := WriteFrame(w, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %v, want %v", got, want)
		}
	}
	if _, err := ReadFrame(r); err == nil {
		t.Error("read past end should fail")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var buf bytes.Buffer
	// A frame header claiming a petabyte.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	if _, err := ReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Error("oversized frame should fail")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	r, b := reg(t)
	q := Query{
		SQL: "SELECT * FROM Prescription WHERE patient = :p AND dose > :d",
		Params: map[string]types.Value{
			"p": types.NewString("Mr.Showbiz"),
			"d": types.NewInt(3),
			"c": b.ChrononValue(temporal.MustDate(1999, 11, 12)),
			"n": types.NewNull(types.TNull),
		},
	}
	payload := EncodeQuery(q)
	if payload[0] != MsgQuery {
		t.Fatal("kind byte")
	}
	back, err := DecodeQuery(r, payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	if back.SQL != q.SQL || len(back.Params) != 4 {
		t.Fatalf("decoded = %+v", back)
	}
	if back.Params["p"].Str() != "Mr.Showbiz" || back.Params["d"].Int() != 3 {
		t.Errorf("params = %+v", back.Params)
	}
	if c := back.Params["c"]; c.T.Name != "Chronon" || c.Obj().(temporal.Chronon) != temporal.MustDate(1999, 11, 12) {
		t.Errorf("chronon param = %+v", c)
	}
	if !back.Params["n"].Null {
		t.Error("NULL param lost")
	}
}

func TestResultRoundTrip(t *testing.T) {
	r, b := reg(t)
	e, _ := temporal.ParseElement("{[1999-10-01, NOW]}")
	res := &exec.Result{
		Cols:     []string{"patient", "valid", "n"},
		Types:    []*types.Type{types.TString, b.Element, types.TInt},
		Affected: 0,
		Rows: []exec.Row{
			{types.NewString("a"), b.ElementValue(e), types.NewInt(1)},
			{types.NewString("b"), types.NewNull(b.Element), types.NewNull(types.TInt)},
		},
	}
	payload := EncodeResult(res)
	back, err := DecodeResult(r, payload[1:])
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || len(back.Cols) != 3 {
		t.Fatalf("shape = %v, %v", back.Cols, len(back.Rows))
	}
	// Customised type mapping: the element arrives as a native object.
	got, ok := back.Rows[0][1].Obj().(temporal.Element)
	if !ok {
		t.Fatalf("element decoded as %T", back.Rows[0][1].Obj())
	}
	if got.String() != "{[1999-10-01, NOW]}" {
		t.Errorf("element = %s", got)
	}
	if !back.Rows[1][1].Null || !back.Rows[1][2].Null {
		t.Error("NULLs lost")
	}
	if back.Types[1].Name != "Element" {
		t.Errorf("inferred type = %v", back.Types[1])
	}
}

func TestResultAffectedOnly(t *testing.T) {
	r, _ := reg(t)
	res := &exec.Result{Affected: 42}
	back, err := DecodeResult(r, EncodeResult(res)[1:])
	if err != nil {
		t.Fatal(err)
	}
	if back.Affected != 42 || len(back.Cols) != 0 {
		t.Errorf("affected = %+v", back)
	}
}

func TestErrorAndHello(t *testing.T) {
	payload := EncodeError("boom")
	if payload[0] != MsgError {
		t.Fatal("kind")
	}
	msg, err := DecodeString(payload[1:])
	if err != nil || msg != "boom" {
		t.Errorf("error = %q, %v", msg, err)
	}
	hello := EncodeHello("me")
	if hello[0] != MsgHello {
		t.Fatal("hello kind")
	}
	welcome := EncodeWelcome(Version, 1<<63|42)
	if welcome[0] != MsgWelcome {
		t.Fatal("welcome kind")
	}
	version, rest, err := ReadString(welcome[1:])
	if err != nil || version != Version {
		t.Fatalf("welcome version = %q, %v", version, err)
	}
	if key, err := DecodeKey(rest); err != nil || key != 1<<63|42 {
		t.Errorf("welcome key = %d, %v", key, err)
	}
	cancel := EncodeCancel(7)
	if len(cancel) != CancelLen || cancel[0] != MsgCancel {
		t.Fatalf("cancel frame % x", cancel)
	}
	if key, err := DecodeKey(cancel[1:]); err != nil || key != 7 {
		t.Errorf("cancel key = %d, %v", key, err)
	}
	if _, err := DecodeKey(cancel[1:8]); err == nil {
		t.Error("short cancel key should fail")
	}
}

// TestFrameBuffered: a frame counts as buffered only once its length
// prefix and every payload byte are in the reader.
func TestFrameBuffered(t *testing.T) {
	payload := make([]byte, 300) // a two-byte length prefix
	var whole bytes.Buffer
	w := bufio.NewWriter(&whole)
	if err := WriteFrame(w, payload); err != nil {
		t.Fatal(err)
	}
	frame := whole.Bytes()
	for _, cut := range []int{1, 2, len(frame) - 1} {
		r := bufio.NewReader(bytes.NewReader(frame[:cut]))
		_, _ = r.Peek(1)
		if FrameBuffered(r) {
			t.Errorf("%d of %d bytes counted as a whole frame", cut, len(frame))
		}
	}
	r := bufio.NewReader(bytes.NewReader(frame))
	_, _ = r.Peek(1)
	if !FrameBuffered(r) {
		t.Error("whole frame not counted as buffered")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	r, _ := reg(t)
	if _, err := DecodeQuery(r, nil); err == nil {
		t.Error("empty query should fail")
	}
	if _, err := DecodeQuery(r, []byte{200}); err == nil {
		t.Error("bad string length should fail")
	}
	if _, err := DecodeResult(r, nil); err == nil {
		t.Error("empty result should fail")
	}
	// A huge row count with no columns must fail before any allocation.
	noCols := binary.AppendUvarint([]byte{0, 0}, 1<<62)
	if _, err := DecodeResult(r, noCols); err == nil {
		t.Error("rows without columns should fail")
	}
	// Unknown type name.
	buf := AppendString([]byte{}, "q")
	buf = append(buf, 1) // one param
	buf = AppendString(buf, "x")
	buf = AppendString(buf, "NoSuchType")
	buf = append(buf, 0)
	if _, err := DecodeQuery(r, buf); err == nil {
		t.Error("unknown wire type should fail")
	}
	// Trailing bytes rejected.
	good := EncodeQuery(Query{SQL: "SELECT 1"})
	if _, err := DecodeQuery(r, append(good[1:], 0xFF)); err == nil {
		t.Error("trailing bytes should fail")
	}
}
