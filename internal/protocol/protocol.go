// Package protocol defines the binary wire format between TIP clients and
// the TIP server — the stand-in for the ODBC/JDBC connectivity of the
// paper's Figure 1. Messages are length-prefixed frames; values travel in
// the efficient binary format, typed by name (once per result column),
// and the client's blade registry maps them back to native objects (the
// "customized type mapping" the TIP Browser uses over JDBC 2.0).
//
// Frame: uvarint payloadLength, payload. Payload: 1 kind byte, body.
//
//	MsgHello    client→server: str clientName
//	MsgWelcome  server→client: str serverVersion (Version), then the
//	            connection's cancel key as 8 bytes little-endian
//	MsgQuery    client→server: str sql, uvarint nParams, (str name, value)*
//	MsgResult   server→client: uvarint affected, uvarint nCols,
//	            (str name, str typeName)*, uvarint nRows, nRows×nCols
//	            values in row order, each as the types codec bytes
//	            alone, decoded as its column's type
//	MsgError    server→client: str message, then optionally one error
//	            code byte (ErrCode*; a frame without one is
//	            ErrCodeGeneric)
//	MsgQuit     client→server: no body
//	MsgStats    client→server: no body (request);
//	            server→client: uvarint n, (str name, float64 bits)*
//	MsgCancel   client→server, as the first and only frame of a
//	            fresh connection: the cancel key (8 bytes LE)
//
// Replication messages (see internal/repl):
//
//	MsgSubscribe  replica→primary: uvarint fromSeq, str replicaName,
//	              str runID ("" on first contact)
//	MsgWALFrame   primary→replica: a log or snapshot frame body
//	              verbatim — {format, CRC32C, seq, payload}
//	              as internal/engine encoded it
//	MsgSnapshot   replica→primary: no body. The primary answers
//	              with a MsgReplStatus (its runID and the seq the
//	              snapshot reflects), then the snapshot as one
//	              MsgWALFrame per snapshot frame, the last one the
//	              snapshot's end frame (empty payload)
//	MsgReplStatus either direction on a stream: byte role,
//	              uvarint appliedSeq, str runID
//
// Value: str typeName ("" for untyped NULL), then the types codec bytes.
package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"tip/internal/blade"
	"tip/internal/exec"
	"tip/internal/obs"
	"tip/internal/types"
)

// Message kinds.
const (
	MsgHello byte = iota + 1
	MsgWelcome
	MsgQuery
	MsgResult
	MsgError
	MsgQuit
	MsgStats
	// MsgCancel (client→server, on a side connection) asks the server
	// to abort the statement of the connection its key was welcomed on.
	// The server sends no reply; the cancelled statement answers with
	// MsgError carrying ErrCodeCancelled. A cancel that arrives with no
	// statement running aborts the next statement on the connection (at
	// most one statement is ever cancelled per MsgCancel).
	MsgCancel
	// MsgSubscribe (replica→primary) turns the connection into a WAL
	// stream: the primary answers with a MsgReplStatus report, then
	// MsgWALFrame frames from fromSeq+1 onward until the connection
	// closes. The replica may keep sending MsgReplStatus reports on the
	// same connection to advertise its applied position.
	MsgSubscribe
	// MsgWALFrame (primary→replica) carries one WAL frame body
	// verbatim; the replica checksums and applies it.
	MsgWALFrame
	// MsgSnapshot (replica→primary, empty body) requests a database
	// snapshot for replica bootstrap. The primary replies with a
	// MsgReplStatus carrying its runID and the WAL seq the snapshot
	// reflects, then streams the snapshot's frames as MsgWALFrame
	// messages, ending with its end frame.
	MsgSnapshot
	// MsgReplStatus reports {role, appliedSeq, runID} on a WAL stream:
	// the primary's flushed seq (first reply and idle heartbeats) and
	// the replica's applied seq (periodic position reports).
	MsgReplStatus
)

// Roles reported in MsgReplStatus frames.
const (
	RolePrimary byte = 1
	RoleReplica byte = 2
)

// Error codes carried by MsgError frames (after the message string), so
// clients can react to a failure class without parsing text. A frame
// without a code byte is ErrCodeGeneric — the SQL-error case, where the
// connection stays usable.
const (
	// ErrCodeGeneric is an ordinary statement error (SQL or engine).
	ErrCodeGeneric byte = iota
	// ErrCodeCancelled reports a statement aborted by MsgCancel.
	ErrCodeCancelled
	// ErrCodeTimeout reports a statement aborted by the statement
	// timeout.
	ErrCodeTimeout
	// ErrCodeBusy reports admission-control rejection (connection limit
	// or load shedding) or a table an open transaction holds; the
	// statement never ran and a retry after backoff is safe.
	ErrCodeBusy
	// ErrCodeShutdown reports a server that is draining: the statement
	// never ran and the connection is about to close.
	ErrCodeShutdown
	// ErrCodeReadOnly reports a state-changing statement sent to a
	// read-only replica; the statement never ran and should be retried
	// against the primary.
	ErrCodeReadOnly
	// ErrCodeWALGone answers a MsgSubscribe whose fromSeq the primary
	// can no longer serve (the frames were checkpointed away, or the
	// primary restarted into a new WAL lineage). The replica must
	// re-bootstrap via MsgSnapshot.
	ErrCodeWALGone
	// ErrCodeResource reports a statement rejected or aborted by
	// resource governance: its memory budget ran out, the server shed
	// it under global memory pressure, or its result exceeded the
	// response frame bound. The connection stays usable and a retry
	// after backoff is safe (the statement either never ran or was
	// aborted before applying any change).
	ErrCodeResource
	// ErrCodeInternal reports a statement whose execution panicked: a
	// defect in the server, contained to the statement, which applied
	// no change. The connection stays usable; a retry will likely fail
	// the same way.
	ErrCodeInternal
)

// Version identifies the protocol revision. A client refuses a server
// that welcomes it with another one: TIP/1 sent every result value with
// its type name, so the two cannot read each other's result frames;
// TIP/2 took MsgCancel, without a key, on the statement's connection;
// TIP/3 replicas read MsgWALFrame bodies of frame format 2, which
// this revision's frame format 3 replaced.
const Version = "TIP/4"

// MaxFrame bounds a frame's payload to keep a malicious peer from forcing
// huge allocations.
const MaxFrame = 64 << 20

// ErrProtocol reports a malformed frame.
var ErrProtocol = errors.New("protocol: malformed message")

// ErrFrameTooLarge reports a frame the sender refused to write because
// its payload exceeds the agreed bound — the send-path mirror of
// ReadFrameLimit, so an oversized result is refused before it hits the
// wire (where the peer would reject it anyway).
var ErrFrameTooLarge = errors.New("protocol: frame exceeds limit")

// Query is a parsed MsgQuery.
type Query struct {
	SQL    string
	Params map[string]types.Value
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w *bufio.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// WriteFrameLimit writes one length-prefixed frame, rejecting (with
// ErrFrameTooLarge, before writing anything) any payload larger than
// limit. Use it wherever the peer is known to read with a matching
// ReadFrameLimit, so oversized frames fail typed on the sending side
// instead of killing the connection on the receiving one.
func WriteFrameLimit(w *bufio.Writer, payload []byte, limit uint64) error {
	if uint64(len(payload)) > limit {
		return fmt.Errorf("%w: frame of %d bytes (limit %d)", ErrFrameTooLarge, len(payload), limit)
	}
	return WriteFrame(w, payload)
}

// FrameBuffered reports whether r holds a whole frame: reading it cannot block.
func FrameBuffered(r *bufio.Reader) bool {
	buf, _ := r.Peek(r.Buffered())
	n, k := binary.Uvarint(buf)
	return k > 0 && n <= uint64(len(buf)-k)
}

// ReadFrame reads one length-prefixed frame, bounded by MaxFrame.
func ReadFrame(r *bufio.Reader) ([]byte, error) {
	return ReadFrameLimit(r, MaxFrame)
}

// ReadFrameLimit reads one length-prefixed frame, rejecting any frame
// whose declared payload exceeds limit — the receive-path mirror of the
// WAL's frame bound, so a hostile peer cannot force a huge allocation
// by declaring an absurd length.
func ReadFrameLimit(r *bufio.Reader, limit uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > limit {
		return nil, fmt.Errorf("%w: frame of %d bytes (limit %d)", ErrProtocol, n, limit)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ---------------------------------------------------------------- encoding

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadString reads a length-prefixed string from the front of buf.
func ReadString(buf []byte) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf)-k) < n {
		return "", nil, fmt.Errorf("%w: string", ErrProtocol)
	}
	buf = buf[k:]
	return string(buf[:n]), buf[n:], nil
}

// AppendValue appends a typed value.
func AppendValue(buf []byte, v types.Value) []byte {
	buf = AppendString(buf, typeName(v.T))
	return v.AppendBinary(buf)
}

// typeName is t's wire name: "" for the NULL type (or none).
func typeName(t *types.Type) string {
	if t == nil || t.Kind == types.KindNull {
		return ""
	}
	return t.Name
}

// ReadValue reads a typed value, resolving the type name against reg.
func ReadValue(reg *blade.Registry, buf []byte) (types.Value, []byte, error) {
	t, buf, err := readType(reg, buf)
	if err != nil {
		return types.Value{}, nil, err
	}
	return decodeValueTail(t, buf)
}

// readType reads a wire type name and resolves it against reg.
func readType(reg *blade.Registry, buf []byte) (*types.Type, []byte, error) {
	name, buf, err := ReadString(buf)
	if err != nil || name == "" {
		return types.TNull, buf, err
	}
	t, ok := reg.LookupType(name)
	if !ok {
		return nil, nil, fmt.Errorf("%w: unknown type %s (blade missing?)", ErrProtocol, name)
	}
	return t, buf, nil
}

func decodeValueTail(t *types.Type, buf []byte) (types.Value, []byte, error) {
	if t.Kind == types.KindNull {
		// Untyped NULL: the codec still writes one tag byte, the NULL tag.
		if len(buf) < 1 || buf[0] != 0 {
			return types.Value{}, nil, fmt.Errorf("%w: null value", ErrProtocol)
		}
		return types.NewNull(types.TNull), buf[1:], nil
	}
	v, rest, err := types.DecodeValue(t, buf)
	if err != nil {
		return types.Value{}, nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	return v, rest, nil
}

// ----------------------------------------------------------------- messages

// EncodeHello builds a MsgHello payload.
func EncodeHello(clientName string) []byte {
	return AppendString([]byte{MsgHello}, clientName)
}

// EncodeWelcome builds a MsgWelcome payload.
func EncodeWelcome(serverVersion string, key uint64) []byte {
	return binary.LittleEndian.AppendUint64(AppendString([]byte{MsgWelcome}, serverVersion), key)
}

// EncodeCancel builds a MsgCancel payload.
func EncodeCancel(key uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{MsgCancel}, key)
}

// CancelLen is the length of a MsgCancel payload: kind byte and key.
const CancelLen = 1 + 8

// DecodeKey parses a cancel key: a MsgCancel body or a MsgWelcome's tail.
func DecodeKey(body []byte) (uint64, error) {
	if len(body) != 8 {
		return 0, fmt.Errorf("%w: cancel key", ErrProtocol)
	}
	return binary.LittleEndian.Uint64(body), nil
}

// EncodeQuery builds a MsgQuery payload.
func EncodeQuery(q Query) []byte {
	buf := AppendString([]byte{MsgQuery}, q.SQL)
	buf = binary.AppendUvarint(buf, uint64(len(q.Params)))
	for name, v := range q.Params {
		buf = AppendString(buf, name)
		buf = AppendValue(buf, v)
	}
	return buf
}

// DecodeQuery parses a MsgQuery body (after the kind byte).
func DecodeQuery(reg *blade.Registry, body []byte) (Query, error) {
	sql, body, err := ReadString(body)
	if err != nil {
		return Query{}, err
	}
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return Query{}, fmt.Errorf("%w: param count", ErrProtocol)
	}
	body = body[k:]
	q := Query{SQL: sql}
	if n > 0 {
		q.Params = make(map[string]types.Value, n)
	}
	for range n {
		var name string
		if name, body, err = ReadString(body); err != nil {
			return Query{}, err
		}
		var v types.Value
		if v, body, err = ReadValue(reg, body); err != nil {
			return Query{}, err
		}
		q.Params[name] = v
	}
	if len(body) != 0 {
		return Query{}, fmt.Errorf("%w: trailing query bytes", ErrProtocol)
	}
	return q, nil
}

// EncodeResult builds a MsgResult payload: each column's static type
// (res.Types) once in its header, then every value as bare codec bytes,
// which the client decodes as its column's type.
func EncodeResult(res *exec.Result) []byte {
	buf := []byte{MsgResult}
	buf = binary.AppendUvarint(buf, uint64(res.Affected))
	buf = binary.AppendUvarint(buf, uint64(len(res.Cols)))
	for i, c := range res.Cols {
		buf = AppendString(buf, c)
		buf = AppendString(buf, typeName(res.Types[i]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		for _, v := range row {
			buf = v.AppendBinary(buf)
		}
	}
	return buf
}

// DecodeResult parses a MsgResult body (after the kind byte). The rows
// share one backing array of values.
func DecodeResult(reg *blade.Registry, body []byte) (*exec.Result, error) {
	affected, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, fmt.Errorf("%w: affected", ErrProtocol)
	}
	body = body[k:]
	nCols, k := binary.Uvarint(body)
	if k <= 0 || nCols > uint64(len(body)) {
		return nil, fmt.Errorf("%w: column count", ErrProtocol)
	}
	body = body[k:]
	res := &exec.Result{Affected: int(affected), Cols: make([]string, nCols), Types: make([]*types.Type, nCols)}
	var err error
	for i := range res.Cols {
		if res.Cols[i], body, err = ReadString(body); err != nil {
			return nil, err
		}
		if res.Types[i], body, err = readType(reg, body); err != nil {
			return nil, err
		}
	}
	nRows, k := binary.Uvarint(body)
	// Every value takes at least one byte, and the engine sends no rows
	// without columns.
	if k <= 0 || nCols == 0 && nRows > 0 || nCols > 0 && nRows > uint64(len(body))/nCols {
		return nil, fmt.Errorf("%w: row count", ErrProtocol)
	}
	body = body[k:]
	vals := make([]types.Value, nRows*nCols)
	res.Rows = make([]exec.Row, nRows)
	for r := range res.Rows {
		row := vals[uint64(r)*nCols : uint64(r+1)*nCols : uint64(r+1)*nCols]
		for i := range row {
			if row[i], body, err = decodeValueTail(res.Types[i], body); err != nil {
				return nil, err
			}
		}
		res.Rows[r] = row
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: trailing result bytes", ErrProtocol)
	}
	return res, nil
}

// EncodeStats builds a MsgStats response payload from a metrics
// snapshot. Values travel as raw IEEE-754 bits, names as strings; the
// snapshot's sorted order is preserved.
func EncodeStats(snap obs.Snapshot) []byte {
	buf := []byte{MsgStats}
	buf = binary.AppendUvarint(buf, uint64(len(snap)))
	for _, st := range snap {
		buf = AppendString(buf, st.Name)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Value))
	}
	return buf
}

// DecodeStats parses a MsgStats response body (after the kind byte).
func DecodeStats(body []byte) (obs.Snapshot, error) {
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return nil, fmt.Errorf("%w: stat count", ErrProtocol)
	}
	body = body[k:]
	snap := make(obs.Snapshot, 0, n)
	var err error
	for range n {
		var name string
		if name, body, err = ReadString(body); err != nil {
			return nil, err
		}
		if len(body) < 8 {
			return nil, fmt.Errorf("%w: stat value", ErrProtocol)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(body))
		body = body[8:]
		snap = append(snap, obs.Stat{Name: name, Value: v})
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: trailing stats bytes", ErrProtocol)
	}
	return snap, nil
}

// EncodeError builds a MsgError payload with no code byte
// (ErrCodeGeneric).
func EncodeError(msg string) []byte {
	return AppendString([]byte{MsgError}, msg)
}

// EncodeErrorCode builds a MsgError payload carrying an error code.
func EncodeErrorCode(code byte, msg string) []byte {
	return append(AppendString([]byte{MsgError}, msg), code)
}

// DecodeError parses a MsgError body (after the kind byte): the
// message, plus the error code when the frame carries one
// (ErrCodeGeneric otherwise).
func DecodeError(body []byte) (msg string, code byte, err error) {
	msg, rest, err := ReadString(body)
	if err != nil {
		return "", 0, err
	}
	switch len(rest) {
	case 0:
		return msg, ErrCodeGeneric, nil
	case 1:
		return msg, rest[0], nil
	default:
		return "", 0, fmt.Errorf("%w: trailing error bytes", ErrProtocol)
	}
}

// DecodeString parses a single-string body (hello, welcome, error).
func DecodeString(body []byte) (string, error) {
	s, rest, err := ReadString(body)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("%w: trailing bytes", ErrProtocol)
	}
	return s, nil
}
