package protocol

// Replication message codecs. The stream payload itself (MsgWALFrame)
// is deliberately opaque here: it is a WAL frame body exactly as
// internal/engine encoded it, checksum and all, so the wire format
// cannot drift from the on-disk format.

import (
	"encoding/binary"
	"fmt"
)

// ReplStatus is a decoded MsgReplStatus report: which role the peer
// plays, the WAL seq it has flushed (primary) or applied (replica), and
// the primary runID that seq belongs to ("" when a replica has not
// bootstrapped yet).
type ReplStatus struct {
	Role       byte
	AppliedSeq uint64
	RunID      string
}

// EncodeSubscribe builds a MsgSubscribe payload: stream me the frames
// after fromSeq, which I applied under the given primary runID.
func EncodeSubscribe(fromSeq uint64, replicaName, runID string) []byte {
	buf := binary.AppendUvarint([]byte{MsgSubscribe}, fromSeq)
	buf = AppendString(buf, replicaName)
	return AppendString(buf, runID)
}

// DecodeSubscribe parses a MsgSubscribe body (after the kind byte).
func DecodeSubscribe(body []byte) (fromSeq uint64, replicaName, runID string, err error) {
	fromSeq, k := binary.Uvarint(body)
	if k <= 0 {
		return 0, "", "", fmt.Errorf("%w: subscribe seq", ErrProtocol)
	}
	body = body[k:]
	if replicaName, body, err = ReadString(body); err != nil {
		return 0, "", "", err
	}
	if runID, body, err = ReadString(body); err != nil {
		return 0, "", "", err
	}
	if len(body) != 0 {
		return 0, "", "", fmt.Errorf("%w: trailing subscribe bytes", ErrProtocol)
	}
	return fromSeq, replicaName, runID, nil
}

// EncodeWALFrameMsg wraps a WAL frame body into a MsgWALFrame payload.
func EncodeWALFrameMsg(frameBody []byte) []byte {
	buf := make([]byte, 0, len(frameBody)+1)
	buf = append(buf, MsgWALFrame)
	return append(buf, frameBody...)
}

// EncodeSnapshotRequest builds the empty-body MsgSnapshot request.
func EncodeSnapshotRequest() []byte { return []byte{MsgSnapshot} }

// EncodeReplStatus builds a MsgReplStatus report.
func EncodeReplStatus(st ReplStatus) []byte {
	buf := append([]byte{MsgReplStatus}, st.Role)
	buf = binary.AppendUvarint(buf, st.AppliedSeq)
	return AppendString(buf, st.RunID)
}

// DecodeReplStatus parses a MsgReplStatus report body (after the kind
// byte).
func DecodeReplStatus(body []byte) (ReplStatus, error) {
	if len(body) < 1 {
		return ReplStatus{}, fmt.Errorf("%w: status role", ErrProtocol)
	}
	st := ReplStatus{Role: body[0]}
	body = body[1:]
	seq, k := binary.Uvarint(body)
	if k <= 0 {
		return ReplStatus{}, fmt.Errorf("%w: status seq", ErrProtocol)
	}
	st.AppliedSeq = seq
	body = body[k:]
	var err error
	if st.RunID, body, err = ReadString(body); err != nil {
		return ReplStatus{}, err
	}
	if len(body) != 0 {
		return ReplStatus{}, fmt.Errorf("%w: trailing status bytes", ErrProtocol)
	}
	return st, nil
}
