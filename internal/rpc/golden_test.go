package rpc

import (
	"encoding/hex"
	"errors"
	"net"
	"sync"
	"testing"

	"openembedding/internal/psengine"
)

// goldenAdmin is the fixed admin surface the response goldens run
// against: every hook answers a constant.
type goldenAdmin struct{}

func (goldenAdmin) Rollback(target int64) error { return nil }

func (goldenAdmin) Scrub() (psengine.ScrubReport, error) {
	return psengine.ScrubReport{Scanned: 11, Corrupt: 2, Repaired: 1, Restored: 1, Fenced: 0, Quarantined: 3}, nil
}

func (goldenAdmin) MigrateRange(since int64, afterKey uint64, max int, ivs []HashInterval) ([]MigEntry, bool, error) {
	return []MigEntry{{Key: 5, Version: 2, Data: []float32{1, -1}}, {Key: 9, Version: 4, Data: nil}}, true, nil
}

func (goldenAdmin) AdoptRange(entries []MigEntry) error { return nil }

func (goldenAdmin) DropRange(ivs []HashInterval) (int, error) { return 3, nil }

func (goldenAdmin) Replicate(keys []uint64, rows []float32) error { return nil }

// goldenServerOptions builds the server the response goldens run against.
func goldenServerOptions() ServerOptions {
	return ServerOptions{Admin: goldenAdmin{}, Bags: goldenBags{}}
}

// goldenIntegrityError stands in for the pmem package's corruption errors.
type goldenIntegrityError struct{}

func (goldenIntegrityError) Error() string        { return "checksum mismatch" }
func (goldenIntegrityError) IntegrityError() bool { return true }

// goldenBusyError stands in for the serve package's admission-control shed.
type goldenBusyError struct{}

func (goldenBusyError) Error() string { return "shed" }
func (goldenBusyError) Busy() bool    { return true }

// goldenEngine answers every call with a constant: row i of key k is
// (k, i), key 666 is corrupt, and Push of key 999 fails.
type goldenEngine struct{}

func (goldenEngine) Name() string { return "golden" }
func (goldenEngine) Dim() int     { return 2 }
func (goldenEngine) Pull(batch int64, keys []uint64, dst []float32) error {
	for i, k := range keys {
		if k == 666 {
			return goldenIntegrityError{}
		}
		dst[2*i], dst[2*i+1] = float32(k), float32(i)
	}
	return nil
}
func (goldenEngine) EndPullPhase(int64)   {}
func (goldenEngine) WaitMaintenance()     {}
func (goldenEngine) EndBatch(int64) error { return nil }
func (goldenEngine) Push(batch int64, keys []uint64, grads []float32) error {
	if len(keys) > 0 && keys[0] == 999 {
		return errors.New("unknown key 999")
	}
	return nil
}
func (goldenEngine) RequestCheckpoint(int64) error { return nil }
func (goldenEngine) CompletedCheckpoint() int64    { return 5 }
func (goldenEngine) Stats() psengine.Stats {
	return psengine.Stats{Entries: 1, CachedEntries: 2, Hits: 3, Misses: 4,
		PMemReads: 5, PMemWrites: 6, Evictions: 7, CheckpointsDone: 8}
}
func (goldenEngine) Close() error { return nil }

// goldenBags sums key values into every element and sheds bags whose
// first key is 777.
type goldenBags struct{}

func (goldenBags) Dim() int { return 2 }
func (goldenBags) PullBags(mean bool, offsets []uint32, keys []uint64, out []float32) error {
	if len(keys) > 0 && keys[0] == 777 {
		return goldenBusyError{}
	}
	for b := 0; b+1 < len(offsets); b++ {
		for _, k := range keys[offsets[b]:offsets[b+1]] {
			out[2*b] += float32(k)
			out[2*b+1] += float32(k)
		}
	}
	return nil
}

// recorder is a listener that records every request frame body and
// answers it with a canned reply chosen by message type.
type recorder struct {
	ln     net.Listener
	mu     sync.Mutex
	bodies [][]byte
}

func cannedReply(t byte) []byte {
	out := &Buffer{b: []byte{MsgData}}
	switch t {
	case MsgPull, MsgPullBag:
		out.PutFloats([]float32{1.5, -2})
	case MsgCompletedCkpt, MsgDropRange, MsgHello:
		out.PutI64(9)
	case MsgScrub:
		for v := int64(1); v <= 6; v++ {
			out.PutI64(v)
		}
	case MsgStats:
		for v := int64(1); v <= 8; v++ {
			out.PutI64(v)
		}
	case MsgPing:
		out.PutI64(9)
		out.PutU8(1)
	case MsgMigrateRange:
		out.PutU8(1)
		putMigEntries(out, []MigEntry{{Key: 5, Version: 2, Data: []float32{1, -1}}})
	default:
		return OKBody()
	}
	return out.Bytes()
}

func startRecorder(t *testing.T) *recorder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					body, err := ReadFrame(conn)
					if err != nil || len(body) == 0 {
						return
					}
					rec.mu.Lock()
					rec.bodies = append(rec.bodies, body)
					rec.mu.Unlock()
					if WriteFrame(conn, cannedReply(body[0])) != nil {
						return
					}
				}
			}()
		}
	}()
	return rec
}

// last returns the most recently recorded request body.
func (rec *recorder) last() []byte {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.bodies[len(rec.bodies)-1]
}

// TestWireFormatGolden pins the bytes on the wire: the request body every
// Client method writes, and the response body the server returns for
// fixed inputs. A codec rewrite must leave every hex string unchanged.
func TestWireFormatGolden(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if h := hex.EncodeToString(got); h != want {
			t.Errorf("%s:\n got %s\nwant %s", name, h, want)
		}
	}

	t.Run("requests", func(t *testing.T) {
		rec := startRecorder(t)
		cl, err := Dial(rec.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cl.id = 0x0102 // fixed client ID (process-unique by default)
		ivs := []HashInterval{{Lo: 1, Hi: 2}, {Lo: 10, Hi: 20}}

		steps := []struct {
			name string
			call func() error
			want string
		}{
			{"pull", func() error {
				v, err := cl.Pull(7, []uint64{1, 2})
				if err == nil && (len(v) != 2 || v[0] != 1.5 || v[1] != -2) {
					t.Errorf("pull decoded %v", v)
				}
				return err
			}, "0107000000000000000200000001000000000000000200000000000000"},
			{"push", func() error { return cl.Push(7, []uint64{3}, []float32{0.5, -0.5}) }, "02070000000000000002010000000000000000000000000000010000000300000000000000020000000000003f000000bf"},
			{"end-pull-phase", func() error { return cl.EndPullPhase(7) }, "03070000000000000002010000000000000000000000000000"},
			{"end-batch", func() error { return cl.EndBatch(7) }, "04070000000000000002010000000000000000000000000000"},
			{"checkpoint", func() error { return cl.RequestCheckpoint(7) }, "05070000000000000002010000000000000000000000000000"},
			{"completed-checkpoint", func() error {
				v, err := cl.CompletedCheckpoint()
				if err == nil && v != 9 {
					t.Errorf("completed decoded %d", v)
				}
				return err
			}, "060000000000000000"},
			{"rollback", func() error { return cl.Rollback(4) }, "0a0400000000000000"},
			{"scrub", func() error {
				rep, err := cl.Scrub()
				if want := (psengine.ScrubReport{Scanned: 1, Corrupt: 2, Repaired: 3, Restored: 4, Fenced: 5, Quarantined: 6}); err == nil && rep != want {
					t.Errorf("scrub decoded %+v", rep)
				}
				return err
			}, "0b0000000000000000"},
			{"stats", func() error {
				st, err := cl.Stats()
				if want := (psengine.Stats{Entries: 1, CachedEntries: 2, Hits: 3, Misses: 4, PMemReads: 5, PMemWrites: 6, Evictions: 7, CheckpointsDone: 8}); err == nil && st != want {
					t.Errorf("stats decoded %+v", st)
				}
				return err
			}, "070000000000000000"},
			{"ping", cl.Ping, "080000000000000000"},
			{"ping-info", func() error {
				h, err := cl.PingInfo()
				if err == nil && (h.Epoch != 9 || !h.Serving) {
					t.Errorf("ping-info decoded %+v", h)
				}
				return err
			}, "080000000000000000"},
			{"migrate-range", func() error {
				es, more, err := cl.MigrateRange(-3, 40, 128, ivs)
				if err == nil && (!more || len(es) != 1 || es[0].Key != 5 || es[0].Version != 2 || len(es[0].Data) != 2 || es[0].Data[1] != -1) {
					t.Errorf("migrate-range decoded %v %v", es, more)
				}
				return err
			}, "0dfdffffffffffffff2800000000000000800000000000000004000000010000000000000002000000000000000a000000000000001400000000000000"},
			{"adopt-range", func() error {
				return cl.AdoptRange([]MigEntry{{Key: 5, Version: 2, Data: []float32{1, -1}}, {Key: 6, Version: 3}})
			}, "0e0000000000000000020000000000000005000000000000000200000000000000020000000000803f000080bf0600000000000000030000000000000000000000"},
			{"drop-range", func() error {
				n, err := cl.DropRange(ivs)
				if err == nil && n != 9 {
					t.Errorf("drop-range decoded %d", n)
				}
				return err
			}, "0f000000000000000004000000010000000000000002000000000000000a000000000000001400000000000000"},
			{"replicate", func() error { return cl.Replicate([]uint64{4}, []float32{0.25, 0.75}) }, "100000000000000000010000000400000000000000020000000000803e0000403f"},
			{"pull-bags-sum", func() error {
				_, err := cl.PullBags(false, []uint32{0, 1, 2}, []uint64{8, 9})
				return err
			}, "0c000000000000000000030000000000000001000000020000000200000008000000000000000900000000000000"},
			{"pull-bags-mean", func() error {
				_, err := cl.PullBags(true, []uint32{0, 0}, nil)
				return err
			}, "0c00000000000000000102000000000000000000000000000000"},
			// From here on the client runs fault-tolerant: mutating requests
			// carry sequence numbers and AdoptEpoch handshakes.
			{"ft-push", func() error {
				cl.opts.Retry.MaxAttempts = 1
				return cl.Push(8, []uint64{3}, []float32{1, 2})
			}, "02080000000000000002010000000000000100000000000000010000000300000000000000020000000000803f00000040"},
			{"ft-end-batch", func() error { return cl.EndBatch(8) }, "04080000000000000002010000000000000200000000000000"},
			{"hello", func() error {
				ep, err := cl.AdoptEpoch()
				if err == nil && ep != 9 {
					t.Errorf("hello decoded epoch %d", ep)
				}
				return err
			}, "090000000000000000ffffffffffffffff0201000000000000"},
		}
		for _, st := range steps {
			if err := st.call(); err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			check(st.name, rec.last(), st.want)
		}
	})

	t.Run("responses", func(t *testing.T) {
		srv, err := ServeOpts("127.0.0.1:0", goldenEngine{}, goldenServerOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		send := func(b *Buffer) []byte {
			t.Helper()
			if err := WriteFrame(conn, b.Bytes()); err != nil {
				t.Fatal(err)
			}
			resp, err := ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}
		mutating := func(msg byte, batch, seq int64) *Buffer {
			b := NewBuffer(msg, batch)
			b.PutI64(0x0102)
			b.PutI64(seq)
			return b
		}
		ivs := func(b *Buffer) *Buffer {
			b.PutKeys([]uint64{1, 2, 10, 20})
			return b
		}

		steps := []struct {
			name string
			req  func() *Buffer
			want string
		}{
			{"hello", func() *Buffer {
				b := NewBuffer(MsgHello, 0)
				b.PutI64(-1)
				b.PutI64(0x0102)
				return b
			}, "820000000000000000"},
			{"pull", func() *Buffer {
				b := NewBuffer(MsgPull, 1)
				b.PutKeys([]uint64{3, 4})
				return b
			}, "82040000000000404000000000000080400000803f"},
			{"push-ok", func() *Buffer {
				b := mutating(MsgPush, 1, 1)
				b.PutKeys([]uint64{3})
				b.PutFloats([]float32{1, 1})
				return b
			}, "80"},
			{"push-err", func() *Buffer {
				b := mutating(MsgPush, 1, 2)
				b.PutKeys([]uint64{999})
				b.PutFloats([]float32{1, 1})
				return b
			}, "810f000000756e6b6e6f776e206b657920393939"},
			{"push-replayed", func() *Buffer {
				b := mutating(MsgPush, 1, 2)
				b.PutKeys([]uint64{3})
				b.PutFloats([]float32{1, 1})
				return b
			}, "810f000000756e6b6e6f776e206b657920393939"},
			{"push-stale-seq", func() *Buffer {
				b := mutating(MsgPush, 1, 1)
				b.PutKeys([]uint64{3})
				b.PutFloats([]float32{1, 1})
				return b
			}, "81290000007374616c652073657175656e636520312066726f6d20636c69656e742032353820286c617374203229"},
			{"end-pull-phase", func() *Buffer { return mutating(MsgEndPullPhase, 1, 0) }, "80"},
			{"end-batch", func() *Buffer { return mutating(MsgEndBatch, 1, 3) }, "80"},
			{"checkpoint", func() *Buffer { return mutating(MsgCheckpoint, 1, 4) }, "80"},
			{"completed-checkpoint", func() *Buffer { return NewBuffer(MsgCompletedCkpt, 0) }, "820500000000000000"},
			{"stats", func() *Buffer { return NewBuffer(MsgStats, 0) }, "8201000000000000000200000000000000030000000000000004000000000000000500000000000000060000000000000007000000000000000800000000000000"},
			{"ping", func() *Buffer { return NewBuffer(MsgPing, 0) }, "82000000000000000001"},
			{"rollback", func() *Buffer { return NewBuffer(MsgRollback, 2) }, "80"},
			{"scrub", func() *Buffer { return NewBuffer(MsgScrub, 0) }, "820b0000000000000002000000000000000100000000000000010000000000000000000000000000000300000000000000"},
			{"migrate-range", func() *Buffer {
				b := NewBuffer(MsgMigrateRange, -1)
				b.PutI64(0)
				b.PutI64(64)
				return ivs(b)
			}, "8201020000000000000005000000000000000200000000000000020000000000803f000080bf0900000000000000040000000000000000000000"},
			{"adopt-range", func() *Buffer {
				b := NewBuffer(MsgAdoptRange, 0)
				putMigEntries(b, []MigEntry{{Key: 5, Version: 2, Data: []float32{1, -1}}})
				return b
			}, "80"},
			{"drop-range", func() *Buffer { return ivs(NewBuffer(MsgDropRange, 0)) }, "820300000000000000"},
			{"replicate", func() *Buffer {
				b := NewBuffer(MsgReplicate, 0)
				b.PutKeys([]uint64{4})
				b.PutFloats([]float32{0.25, 0.75})
				return b
			}, "80"},
			{"replicate-ragged", func() *Buffer {
				b := NewBuffer(MsgReplicate, 0)
				b.PutKeys([]uint64{4, 5})
				b.PutFloats([]float32{0.25, 0.75, 1})
				return b
			}, "812d0000007270633a2033207265706c69636120726f777320646f206e6f742064697669646520696e746f2032206b657973"},
			{"pull-bags", func() *Buffer {
				b := NewBuffer(MsgPullBag, 0)
				b.PutU8(0)
				b.PutU32s([]uint32{0, 2, 2})
				b.PutKeys([]uint64{1, 2})
				return b
			}, "820400000000004040000040400000000000000000"},
			{"pull-bags-bad-offsets", func() *Buffer {
				b := NewBuffer(MsgPullBag, 0)
				b.PutU8(0)
				b.PutU32s([]uint32{0, 3})
				b.PutKeys([]uint64{1, 2})
				return b
			}, "81260000007270633a20626167206f66667365747320656e6420617420332c2077616e742032206b657973"},
			{"err-busy", func() *Buffer {
				b := NewBuffer(MsgPullBag, 0)
				b.PutU8(1)
				b.PutU32s([]uint32{0, 1})
				b.PutKeys([]uint64{777})
				return b
			}, "860400000073686564"},
			{"err-corrupt", func() *Buffer {
				b := NewBuffer(MsgPull, 1)
				b.PutKeys([]uint64{666})
				return b
			}, "8511000000636865636b73756d206d69736d61746368"},
			{"err-truncated", func() *Buffer { return &Buffer{b: []byte{MsgPull, 1, 0}} }, "81140000007270633a207472756e6361746564206672616d65"},
			{"err-unknown-type", func() *Buffer { return NewBuffer(0x7f, 0) }, "8119000000756e6b6e6f776e206d65737361676520747970652030783766"},
			{"err-epoch", func() *Buffer {
				srv.SetEpoch(4) // the connection stays bound to epoch 0
				b := NewBuffer(MsgPull, 2)
				b.PutKeys([]uint64{3})
				return b
			}, "840400000000000000"},
		}
		for _, st := range steps {
			check(st.name, send(st.req()), st.want)
		}
	})
}
