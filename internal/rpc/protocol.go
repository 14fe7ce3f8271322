// Package rpc implements the wire protocol between training workers and
// parameter-server nodes: length-prefixed binary frames over TCP (the
// paper's deployment uses RDMA with a low-overhead RPC; TCP via net is the
// portable stand-in, with the network's virtual cost modeled separately by
// the simulator).
//
// Frame layout: 4-byte little-endian body length, a 4-byte little-endian
// deadline (the caller's remaining time budget in microseconds, 0 when the
// caller has none — responses always carry 0), then the body:
//
//	[1]  message type
//	[8]  batch ID (where applicable)
//	[..] type-specific payload (counts are uint32, keys uint64, floats
//	     float32 bit patterns, all little-endian)
//
// The deadline rides in the frame header, not the body, so the server can
// abandon a request whose caller has already timed out before it decodes
// or executes anything. Responses reuse the same framing: MsgOK / MsgErr /
// typed payloads.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Message types.
const (
	MsgPull byte = iota + 1
	MsgPush
	MsgEndPullPhase
	MsgEndBatch
	MsgCheckpoint
	MsgCompletedCkpt
	MsgStats
	MsgPing
	// MsgHello is the fault-tolerant client's handshake: payload is the
	// client's known epoch (-1 to adopt the server's) and its client ID.
	// The response is MsgData with the server's current epoch, and the
	// connection is bound to the client's epoch for fencing.
	MsgHello
	// MsgRollback asks the node to roll its engine back to the checkpoint
	// in the batch field (the coordinated replay protocol; see DESIGN.md
	// §10). Exempt from epoch fencing, since it is how a fenced cluster
	// re-synchronizes.
	MsgRollback
	// MsgScrub asks the node to run one full integrity pass over its
	// persisted records (DESIGN.md §11). The response is MsgData carrying
	// the scrub report's six counters. Exempt from epoch fencing: scrubbing
	// is an admin/repair operation, like Rollback and Stats.
	MsgScrub
	// MsgPullBag is the serving tier's multi-sample embedding-bag gather
	// (DESIGN.md §14): one request carries a pooling mode byte (0 = sum,
	// 1 = mean), a count-prefixed uint32 offsets array (bags+1 entries,
	// offsets[0] == 0, non-decreasing, last == len(keys); a zero-length bag
	// pools to the zero vector) and the concatenated key list. The response
	// is MsgData with bags×dim pooled floats — the server does the pooling,
	// so only one row per bag crosses the wire. Exempt from epoch fencing
	// and dedup: serving is read-only and eventually consistent, decoupled
	// from the training epoch protocol.
	MsgPullBag
	// MsgMigrateRange is the migration coordinator's range export
	// (DESIGN.md §15): the batch field carries the delta floor (only
	// entries with dataVersion >= since are returned; a very negative
	// floor selects everything), and the payload carries the resume
	// cursor, the page size, and the moving hash intervals. The response
	// is MsgData with a more flag and the page's entries. Exempt from
	// epoch fencing and dedup: it is an idempotent admin read, issued by
	// the coordinator that is itself moving the epoch.
	MsgMigrateRange
	// MsgAdoptRange installs migrated entries on the target node,
	// overwriting same-key state and flushing each entry durably before
	// the OK. Exempt from fencing (admin) and dedup (idempotent: adopting
	// the same entries twice converges to the same state).
	MsgAdoptRange
	// MsgDropRange removes the keys of the given hash intervals from the
	// node — index, cache, and durable records — after ownership moved
	// away. The response is MsgData with the dropped-entry count. Exempt
	// from fencing and dedup (idempotent: re-dropping a dropped range
	// drops nothing).
	MsgDropRange
	// MsgReplicate installs read-only serving replicas of the given rows
	// on the node (the R=2 failover copies). Exempt from fencing and
	// dedup: replicas are eventually-consistent serving state, outside
	// the training epoch protocol.
	MsgReplicate

	MsgOK   byte = 0x80
	MsgErr  byte = 0x81
	MsgData byte = 0x82
	// MsgErrEpoch rejects a request from a connection bound to a stale
	// epoch; the payload carries the server's current epoch.
	MsgErrEpoch byte = 0x84
	// MsgErrCorrupt reports a request that failed because the node detected
	// PMem corruption (a checksum or media poison fault) while serving it.
	// Distinct from MsgErr so clients can tell data-integrity failures from
	// ordinary application errors; NOT transparently retried — healing is
	// the scrubber's and the recovery protocol's job.
	MsgErrCorrupt byte = 0x85
	// MsgErrBusy reports a request the node shed under overload (admission
	// control at the serving tier) or abandoned because the caller's
	// propagated deadline had already expired. Distinct from MsgErr so
	// callers can fail over to a replica instead of treating overload as an
	// application bug; NOT transparently retried — hammering an overloaded
	// node is exactly the retry storm the budget exists to prevent.
	MsgErrBusy byte = 0x86
)

// msgSpec is the per-type policy of a request message.
type msgSpec struct {
	// name labels the request in errors and metrics.
	name string
	// fenced requests are rejected when the connection's epoch is stale.
	// Hello, Ping, Stats, CompletedCkpt, Rollback, Scrub, serving and
	// migration requests are exempt: they are how a fenced client observes
	// and heals the fence, or they sit outside the training epoch protocol.
	fenced bool
	// mutating bodies carry, directly after the batch ID, a client ID and
	// a client-assigned sequence number. Sequence 0 means "no dedup"
	// (legacy clients); otherwise the server caches the last response per
	// client and replays it when a retry re-delivers the same sequence,
	// making every mutating op at-most-once under retries.
	mutating bool
}

// msgSpecs is the one place that names, fences and deduplicates each
// request type; unknown types have the zero spec.
var msgSpecs = [256]msgSpec{
	MsgPull:          {name: "pull", fenced: true},
	MsgPush:          {name: "push", fenced: true, mutating: true},
	MsgEndPullPhase:  {name: "end-pull-phase", fenced: true, mutating: true},
	MsgEndBatch:      {name: "end-batch", fenced: true, mutating: true},
	MsgCheckpoint:    {name: "checkpoint", fenced: true, mutating: true},
	MsgCompletedCkpt: {name: "completed-checkpoint"},
	MsgStats:         {name: "stats"},
	MsgPing:          {name: "ping"},
	MsgHello:         {name: "hello"},
	MsgRollback:      {name: "rollback"},
	MsgScrub:         {name: "scrub"},
	MsgPullBag:       {name: "pull-bag"},
	MsgMigrateRange:  {name: "migrate-range"},
	MsgAdoptRange:    {name: "adopt-range"},
	MsgDropRange:     {name: "drop-range"},
	MsgReplicate:     {name: "replicate"},
}

// MaxFrame bounds a frame body; larger frames indicate protocol corruption.
const MaxFrame = 64 << 20

// ErrFrameTooLarge indicates a frame over MaxFrame.
var ErrFrameTooLarge = errors.New("rpc: frame too large")

// frameHdrSize is the wire header: body length + propagated deadline.
const frameHdrSize = 8

// maxDeadlineMicros is the largest deadline the 4-byte header field can
// carry (~71 minutes); longer budgets are clamped, which only ever makes
// the server more patient, never less.
const maxDeadlineMicros = 1<<32 - 1

// WriteFrame writes one frame to w with no propagated deadline.
func WriteFrame(w io.Writer, body []byte) error {
	return WriteFrameDeadline(w, body, 0)
}

// WriteFrameDeadline writes one frame carrying the caller's remaining time
// budget (0 means none). The deadline is relative, not an absolute
// timestamp, so it needs no clock synchronization between peers.
func WriteFrameDeadline(w io.Writer, body []byte, deadline time.Duration) error {
	if len(body) > MaxFrame {
		return ErrFrameTooLarge
	}
	micros := uint64(0)
	if deadline > 0 {
		micros = uint64(deadline / time.Microsecond)
		if micros > maxDeadlineMicros {
			micros = maxDeadlineMicros
		}
	}
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(micros))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame from r, discarding the propagated deadline.
func ReadFrame(r io.Reader) ([]byte, error) {
	body, _, err := ReadFrameDeadline(r)
	return body, err
}

// ReadFrameDeadline reads one frame and the caller's propagated deadline
// (0 when the caller set none).
func ReadFrameDeadline(r io.Reader) ([]byte, time.Duration, error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return nil, 0, ErrFrameTooLarge
	}
	deadline := time.Duration(binary.LittleEndian.Uint32(hdr[4:])) * time.Microsecond
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	return body, deadline, nil
}

// Buffer builds frame bodies.
type Buffer struct{ b []byte }

// NewBuffer returns a body builder starting with the message type and batch.
func NewBuffer(msg byte, batch int64) *Buffer {
	buf := &Buffer{b: make([]byte, 0, 64)}
	buf.b = append(buf.b, msg)
	buf.PutI64(batch)
	return buf
}

// PutI64 appends an int64.
func (p *Buffer) PutI64(v int64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(v))
	p.b = append(p.b, tmp[:]...)
}

// PutKeys appends a count-prefixed key list.
func (p *Buffer) PutKeys(keys []uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(keys)))
	p.b = append(p.b, tmp[:4]...)
	for _, k := range keys {
		binary.LittleEndian.PutUint64(tmp[:], k)
		p.b = append(p.b, tmp[:]...)
	}
}

// PutFloats appends a count-prefixed float32 list.
func (p *Buffer) PutFloats(vals []float32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(vals)))
	p.b = append(p.b, tmp[:]...)
	for _, v := range vals {
		binary.LittleEndian.PutUint32(tmp[:], math.Float32bits(v))
		p.b = append(p.b, tmp[:]...)
	}
}

// PutU8 appends one raw byte (e.g. a pooling-mode flag).
func (p *Buffer) PutU8(v byte) { p.b = append(p.b, v) }

// PutU32s appends a count-prefixed uint32 list (e.g. bag offsets).
func (p *Buffer) PutU32s(vals []uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(vals)))
	p.b = append(p.b, tmp[:]...)
	for _, v := range vals {
		binary.LittleEndian.PutUint32(tmp[:], v)
		p.b = append(p.b, tmp[:]...)
	}
}

// PutString appends a count-prefixed string.
func (p *Buffer) PutString(s string) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(s)))
	p.b = append(p.b, tmp[:]...)
	p.b = append(p.b, s...)
}

// Bytes returns the built body.
func (p *Buffer) Bytes() []byte { return p.b }

// Reader decodes frame bodies. The first decode failure sticks: every
// later read returns a zero value and Err reports the failure, so a
// decoder reads its fields straight through and checks once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a frame body.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// ErrTruncated indicates a body shorter than its encoding claims.
var ErrTruncated = errors.New("rpc: truncated frame")

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// fail records err unless an earlier failure already stuck.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// take consumes n bytes, or fails with ErrTruncated and returns nil.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.fail(ErrTruncated)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

// count consumes a uint32 element count and checks that the body still
// holds that many elements of size bytes, before anything is allocated.
func (r *Reader) count(size int) int {
	p := r.take(4)
	if p == nil {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n*size > len(r.b)-r.off {
		r.fail(ErrTruncated)
		return 0
	}
	return n
}

// U8 consumes one raw byte.
func (r *Reader) U8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

// I64 consumes an int64.
func (r *Reader) I64() int64 {
	if p := r.take(8); p != nil {
		return int64(binary.LittleEndian.Uint64(p))
	}
	return 0
}

// Keys consumes a count-prefixed key list.
func (r *Reader) Keys() []uint64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return keys
}

// Floats consumes a count-prefixed float32 list.
func (r *Reader) Floats() []float32 {
	n := r.count(4)
	if r.err != nil {
		return nil
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}
	return vals
}

// U32s consumes a count-prefixed uint32 list.
func (r *Reader) U32s() []uint32 {
	n := r.count(4)
	if r.err != nil {
		return nil
	}
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint32(r.b[r.off:])
		r.off += 4
	}
	return vals
}

// String consumes a count-prefixed string.
func (r *Reader) String() string {
	return string(r.take(r.count(1)))
}

// OKBody is the canonical success response body.
func OKBody() []byte { return []byte{MsgOK} }

// ErrBody encodes an error response: code is MsgErr, MsgErrCorrupt or
// MsgErrBusy, and the payload is the error text.
func ErrBody(code byte, err error) []byte {
	b := &Buffer{b: []byte{code}}
	b.PutString(err.Error())
	return b.Bytes()
}

// EpochErrBody encodes an epoch-fence rejection carrying the server's
// current epoch.
func EpochErrBody(serverEpoch int64) []byte {
	b := &Buffer{b: []byte{MsgErrEpoch}}
	b.PutI64(serverEpoch)
	return b.Bytes()
}

// HashInterval is a closed range [Lo, Hi] of ring positions (key hashes)
// on the wire; the cluster's placement ring produces them and the node's
// migration hooks turn them into key predicates.
type HashInterval struct{ Lo, Hi uint64 }

// KeyHash maps a key to its ring position: the splitmix64 finalizer, the
// same mixer the cluster's placement ring uses (pinned by a cross-package
// test) — an interval computed there selects exactly the keys matched
// here.
func KeyHash(key uint64) uint64 {
	x := key + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CoversKey reports whether any interval contains key's ring position.
func CoversKey(ivs []HashInterval, key uint64) bool {
	h := KeyHash(key)
	for _, iv := range ivs {
		if iv.Lo <= h && h <= iv.Hi {
			return true
		}
	}
	return false
}

// MigEntry is one migrating entry on the wire: the key, the data version
// of the copied state, and the full row image (weights followed by
// optimizer state).
type MigEntry struct {
	Key     uint64
	Version int64
	Data    []float32
}

// putIntervals appends a count-prefixed flat (lo, hi) pair list.
func putIntervals(b *Buffer, ivs []HashInterval) {
	flat := make([]uint64, 0, 2*len(ivs))
	for _, iv := range ivs {
		flat = append(flat, iv.Lo, iv.Hi)
	}
	b.PutKeys(flat)
}

// readIntervals consumes a count-prefixed flat (lo, hi) pair list.
func readIntervals(r *Reader) []HashInterval {
	flat := r.Keys()
	if len(flat)%2 != 0 {
		r.fail(fmt.Errorf("rpc: odd interval list length %d", len(flat)))
		return nil
	}
	ivs := make([]HashInterval, len(flat)/2)
	for i := range ivs {
		ivs[i] = HashInterval{Lo: flat[2*i], Hi: flat[2*i+1]}
	}
	return ivs
}

// putMigEntries appends a count-prefixed migration entry list.
func putMigEntries(b *Buffer, entries []MigEntry) {
	b.PutI64(int64(len(entries)))
	for _, me := range entries {
		b.PutI64(int64(me.Key))
		b.PutI64(me.Version)
		b.PutFloats(me.Data)
	}
}

// readMigEntries consumes a count-prefixed migration entry list. Each
// entry occupies at least 20 bytes, so a count the body cannot hold fails
// before anything is allocated.
func readMigEntries(r *Reader) []MigEntry {
	n := r.I64()
	if n < 0 || n > int64(len(r.b)-r.off)/20 {
		r.fail(fmt.Errorf("rpc: bad entry count %d", n))
		return nil
	}
	entries := make([]MigEntry, n)
	for i := range entries {
		entries[i] = MigEntry{Key: uint64(r.I64()), Version: r.I64(), Data: r.Floats()}
	}
	return entries
}

// DecodeResponse inspects a response body: nil error for MsgOK/MsgData
// (returning the remaining reader), a *RemoteError for MsgErr,
// MsgErrCorrupt and MsgErrBusy, or an *EpochError for MsgErrEpoch.
func DecodeResponse(body []byte) (*Reader, error) {
	r := NewReader(body)
	t := r.U8()
	var err error
	switch t {
	case MsgOK, MsgData:
		return r, nil
	case MsgErr, MsgErrCorrupt, MsgErrBusy:
		err = &RemoteError{Code: t, Msg: r.String()}
	case MsgErrEpoch:
		err = &EpochError{ServerEpoch: r.I64(), ClientEpoch: -1}
	default:
		r.fail(fmt.Errorf("rpc: unexpected response type 0x%02x", t))
	}
	if r.err != nil {
		return nil, r.err
	}
	return nil, err
}
