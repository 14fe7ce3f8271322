package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/faultinject"
	"openembedding/internal/obs"
	"openembedding/internal/psengine"
)

// ServerOptions configures a Server.
type ServerOptions struct {
	// Epoch is the server's starting epoch. A node that recovers from a
	// crash restarts its server at a higher epoch, which fences every
	// client still synchronized to the old one.
	Epoch int64
	// Inject, when set, wraps accepted connections with the deterministic
	// fault injector (server-side wire faults: torn responses, resets,
	// drops). Nil leaves the hot path untouched.
	Inject *faultinject.Injector
	// Label is the injector stream label for this server's connections;
	// it defaults to "server".
	Label string
	// Admin, when set, serves the node-administration requests:
	// MsgRollback, MsgScrub, MsgMigrateRange, MsgAdoptRange, MsgDropRange
	// and MsgReplicate. Nil rejects them with MsgErr.
	Admin Admin
	// Bags, when set, serves MsgPullBag (the serving tier's pooled
	// embedding-bag gather). Nil rejects bag requests with MsgErr; the
	// connection stays alive either way.
	Bags BagServer
	// Obs, when set, receives server metrics: rpc_server_pull_ns /
	// rpc_server_push_ns / rpc_server_other_ns request-service histograms,
	// rpc_server_bytes_in/out, rpc_server_requests, the rpc_server_conns
	// gauge, and the fault-tolerance counters rpc_server_epoch_rejects,
	// rpc_server_dedup_hits and rpc_server_deadline_abandoned.
	Obs *obs.Registry
}

// Admin is the node-administration surface a node installs
// (ServerOptions.Admin).
type Admin interface {
	// Rollback rolls the node's engine back to the target checkpoint.
	Rollback(target int64) error
	// Scrub runs one full integrity pass over the node's persisted records.
	Scrub() (psengine.ScrubReport, error)
	// MigrateRange exports up to max entries of the given hash intervals
	// with dataVersion >= since and key > afterKey, in ascending key
	// order, with a more flag.
	MigrateRange(since int64, afterKey uint64, max int, ivs []HashInterval) ([]MigEntry, bool, error)
	// AdoptRange installs migrated entries, durably before returning.
	AdoptRange(entries []MigEntry) error
	// DropRange removes the intervals' keys from the node's index, cache
	// and durable records, returning how many entries were dropped.
	DropRange(ivs []HashInterval) (int, error)
	// Replicate installs read-only serving replicas of the given rows.
	Replicate(keys []uint64, rows []float32) error
}

// advancer is the optional engine hook the MsgCompletedCkpt handler drives:
// it lets a client's checkpoint-progress poll push background checkpoint
// finalization forward instead of waiting for the next batch.
type advancer interface{ AdvanceCheckpoints() error }

// dedupEntry caches one client's last mutating request outcome.
type dedupEntry struct {
	seq  int64
	resp []byte
}

// epochUnbound marks a connection that has not yet bound to an epoch: the
// first fenced request (or MsgHello) binds it. Legacy clients never send
// MsgHello and bind lazily to whatever epoch is current, so pre-fault-
// tolerance tooling keeps working against an un-crashed node.
const epochUnbound = int64(-2)

// Server exposes one storage engine (one shard) over TCP. Each accepted
// connection is served by its own goroutine; a worker that wants request
// parallelism opens several connections, as the paper's multi-threaded
// pull handlers do.
//
// The server carries an epoch: connections bind to it at handshake (or
// lazily, for legacy clients) and requests from a connection bound to an
// older epoch are rejected with MsgErrEpoch. A recovered node bumps the
// epoch (ps.Node.Restart), so no stale client can mutate recovered state.
// Mutating requests carrying a client sequence number are deduplicated:
// a retry of the last request replays the cached response.
type Server struct {
	engine psengine.Engine
	ln     net.Listener
	epoch  atomic.Int64
	inject *faultinject.Injector
	label  string
	admin  Admin
	bags   BagServer

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool

	dedupMu sync.Mutex
	dedup   map[int64]dedupEntry // client ID -> last mutating request

	// metrics (nil, and free, without ServerOptions.Obs)
	reg          *obs.Registry
	pullNS       *obs.Histogram
	pushNS       *obs.Histogram
	otherNS      *obs.Histogram
	bytesIn      *obs.Counter
	bytesOut     *obs.Counter
	requests     *obs.Counter
	connsG       *obs.Gauge
	epochRejects *obs.Counter
	dedupHits    *obs.Counter
	abandoned    *obs.Counter

	// now is the wall clock used to measure a request's age against its
	// propagated deadline; tests override it to simulate queueing delay.
	now func() time.Time
}

// Serve starts a server for engine on addr ("127.0.0.1:0" picks a free
// port). The returned server is already accepting.
func Serve(addr string, engine psengine.Engine) (*Server, error) {
	return ServeOpts(addr, engine, ServerOptions{})
}

// ServeOpts starts a server with explicit options.
func ServeOpts(addr string, engine psengine.Engine, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen: %w", err)
	}
	s := &Server{
		engine: engine,
		ln:     ln,
		inject: opts.Inject,
		label:  opts.Label,
		admin:  opts.Admin,
		bags:   opts.Bags,
		conns:  make(map[net.Conn]struct{}),
		now:    time.Now,
	}
	s.epoch.Store(opts.Epoch)
	if s.label == "" {
		s.label = "server"
	}
	if reg := opts.Obs; reg != nil {
		s.reg = reg
		s.pullNS = reg.Histogram("rpc_server_pull_ns")
		s.pushNS = reg.Histogram("rpc_server_push_ns")
		s.otherNS = reg.Histogram("rpc_server_other_ns")
		s.bytesIn = reg.Counter("rpc_server_bytes_in")
		s.bytesOut = reg.Counter("rpc_server_bytes_out")
		s.requests = reg.Counter("rpc_server_requests")
		s.connsG = reg.Gauge("rpc_server_conns")
		s.epochRejects = reg.Counter("rpc_server_epoch_rejects")
		s.dedupHits = reg.Counter("rpc_server_dedup_hits")
		s.abandoned = reg.Counter("rpc_server_deadline_abandoned")
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Epoch returns the server's current epoch.
func (s *Server) Epoch() int64 { return s.epoch.Load() }

// SetEpoch moves the server to a new epoch. Connections bound to the old
// epoch have their next fenced request rejected with MsgErrEpoch.
func (s *Server) SetEpoch(e int64) { s.epoch.Store(e) }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	s.connsG.Add(1)
	defer func() {
		s.connsG.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	// The injected wrapper sits between the raw conn (which Close tracks)
	// and the framing, so server-side faults tear/drop/reset responses.
	wire := s.inject.WrapConn(conn, s.label)
	br := bufio.NewReaderSize(wire, 1<<16)
	bw := bufio.NewWriterSize(wire, 1<<16)
	bound := epochUnbound
	for {
		body, deadline, err := ReadFrameDeadline(br)
		if err != nil {
			return // EOF or broken conn
		}
		arrival := s.now()
		var start time.Duration
		if s.reg != nil {
			start = s.reg.Now()
		}
		resp := s.dispatchDeadline(&bound, body, arrival, deadline)
		if s.reg != nil {
			d := s.reg.Now() - start
			var t byte
			if len(body) > 0 {
				t = body[0]
			}
			switch t {
			case MsgPull:
				s.pullNS.Observe(d)
			case MsgPush:
				s.pushNS.Observe(d)
			default:
				s.otherNS.Observe(d)
			}
			s.requests.Add(1)
			s.bytesIn.Add(int64(len(body)) + frameHdrSize)
			s.bytesOut.Add(int64(len(resp)) + frameHdrSize)
		}
		if err := WriteFrame(bw, resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// dispatchDeadline abandons requests whose caller's propagated deadline
// has already expired — the caller stopped listening, so executing the
// work (and growing the engine's queue) helps nobody — then delegates to
// dispatch. The response is a MsgErrBusy so a stray still-listening caller
// fails over rather than retrying.
func (s *Server) dispatchDeadline(bound *int64, body []byte, arrival time.Time, deadline time.Duration) []byte {
	if deadline > 0 && s.now().Sub(arrival) >= deadline {
		s.abandoned.Add(1)
		return ErrBody(MsgErrBusy, fmt.Errorf("deadline %v expired before execution", deadline))
	}
	return s.dispatch(bound, body)
}

// dispatch decodes the request header once — type, batch, and for
// mutating types the client ID and sequence — then applies the
// connection's epoch fence and the per-client dedup before delegating to
// handle. bound is the connection's epoch binding state.
func (s *Server) dispatch(bound *int64, body []byte) []byte {
	r := NewReader(body)
	t, batch := r.U8(), r.I64()
	spec := &msgSpecs[t]
	var client, seq int64
	if spec.mutating {
		client, seq = r.I64(), r.I64()
	}
	if spec.fenced {
		cur := s.epoch.Load()
		if *bound == epochUnbound {
			*bound = cur // legacy client: lazily adopt the current epoch
		}
		if *bound != cur {
			s.epochRejects.Add(1)
			return EpochErrBody(cur)
		}
	}
	if r.err != nil {
		return ErrBody(MsgErr, r.err)
	}
	if t == MsgHello {
		return s.hello(bound, r)
	}
	if !spec.mutating || seq == 0 {
		return s.handle(t, batch, r)
	}
	s.dedupMu.Lock()
	last, ok := s.dedup[client]
	s.dedupMu.Unlock()
	if ok && seq == last.seq {
		// Retry of the last request: the mutation already ran (or its
		// response was lost in flight after running); replay it.
		s.dedupHits.Add(1)
		return last.resp
	}
	if ok && seq < last.seq {
		return ErrBody(MsgErr, fmt.Errorf("stale sequence %d from client %d (last %d)", seq, client, last.seq))
	}
	resp := s.handle(t, batch, r)
	s.dedupMu.Lock()
	if s.dedup == nil {
		s.dedup = make(map[int64]dedupEntry)
	}
	s.dedup[client] = dedupEntry{seq: seq, resp: resp}
	s.dedupMu.Unlock()
	return resp
}

// hello binds the connection to an epoch and replies with the server's
// current one. A client epoch < 0 adopts the current epoch.
func (s *Server) hello(bound *int64, r *Reader) []byte {
	clientEpoch := r.I64()
	r.I64() // client ID, informational
	if r.err != nil {
		return ErrBody(MsgErr, r.err)
	}
	cur := s.epoch.Load()
	if clientEpoch < 0 {
		clientEpoch = cur
	}
	*bound = clientEpoch
	return i64Body(cur)
}

// handle executes one request whose header dispatch already decoded and
// returns the response body.
func (s *Server) handle(t byte, batch int64, r *Reader) []byte {
	switch t {
	case MsgRollback, MsgScrub, MsgMigrateRange, MsgAdoptRange, MsgDropRange, MsgReplicate:
		if s.admin == nil {
			return ErrBody(MsgErr, fmt.Errorf("%s unsupported by this node", msgSpecs[t].name))
		}
	}
	switch t {
	case MsgPull:
		keys := r.Keys()
		if r.err != nil {
			return ErrBody(MsgErr, r.err)
		}
		dst := make([]float32, len(keys)*s.engine.Dim())
		if err := s.engine.Pull(batch, keys, dst); err != nil {
			return errResp(err)
		}
		return floatsBody(dst)
	case MsgPush:
		keys, grads := r.Keys(), r.Floats()
		if r.err != nil {
			return ErrBody(MsgErr, r.err)
		}
		return okOr(s.engine.Push(batch, keys, grads))
	case MsgEndPullPhase:
		s.engine.EndPullPhase(batch)
		return OKBody()
	case MsgEndBatch:
		return okOr(s.engine.EndBatch(batch))
	case MsgCheckpoint:
		if err := s.engine.RequestCheckpoint(batch); err != nil {
			return ErrBody(MsgErr, err)
		}
		return OKBody()
	case MsgCompletedCkpt:
		// A progress poll also drives background checkpoint finalization
		// forward when the engine supports it, so a trainer waiting for a
		// commit is never stuck behind "no more batches are coming".
		if adv, ok := s.engine.(advancer); ok {
			if err := adv.AdvanceCheckpoints(); err != nil {
				return errResp(err)
			}
		}
		return i64Body(s.engine.CompletedCheckpoint())
	case MsgStats:
		st := s.engine.Stats()
		return i64Body(st.Entries, st.CachedEntries, st.Hits, st.Misses,
			st.PMemReads, st.PMemWrites, st.Evictions, st.CheckpointsDone)
	case MsgPing:
		// The health probe reports the node's epoch and whether it serves
		// bag reads; legacy callers decode the response as a bare OK/Data
		// and ignore the payload.
		out := dataBuffer()
		out.PutI64(s.epoch.Load())
		out.PutU8(flag(s.bags != nil))
		return out.Bytes()
	case MsgPullBag:
		return s.handlePullBag(r)
	case MsgRollback:
		return okOr(s.admin.Rollback(batch))
	case MsgScrub:
		rep, err := s.admin.Scrub()
		if err != nil {
			return errResp(err)
		}
		return i64Body(rep.Scanned, rep.Corrupt, rep.Repaired, rep.Restored, rep.Fenced, rep.Quarantined)
	case MsgMigrateRange:
		// The batch field carries the delta floor (since).
		afterKey, max, ivs := uint64(r.I64()), int(r.I64()), readIntervals(r)
		if r.err != nil {
			return ErrBody(MsgErr, r.err)
		}
		entries, more, err := s.admin.MigrateRange(batch, afterKey, max, ivs)
		if err != nil {
			return errResp(err)
		}
		out := dataBuffer()
		out.PutU8(flag(more))
		putMigEntries(out, entries)
		return out.Bytes()
	case MsgAdoptRange:
		entries := readMigEntries(r)
		if r.err != nil {
			return ErrBody(MsgErr, r.err)
		}
		return okOr(s.admin.AdoptRange(entries))
	case MsgDropRange:
		ivs := readIntervals(r)
		if r.err != nil {
			return ErrBody(MsgErr, r.err)
		}
		n, err := s.admin.DropRange(ivs)
		if err != nil {
			return errResp(err)
		}
		return i64Body(int64(n))
	case MsgReplicate:
		keys, rows := r.Keys(), r.Floats()
		if len(keys) > 0 && (len(rows) == 0 || len(rows)%len(keys) != 0) {
			r.fail(fmt.Errorf("rpc: %d replica rows do not divide into %d keys", len(rows), len(keys)))
		}
		if r.err != nil {
			return ErrBody(MsgErr, r.err)
		}
		return okOr(s.admin.Replicate(keys, rows))
	default:
		return ErrBody(MsgErr, fmt.Errorf("unknown message type 0x%02x", t))
	}
}

// handlePullBag serves one MsgPullBag body (header already consumed).
// Malformed bags — bad pooling mode, truncated or inconsistent offsets,
// offsets past the end of the key list — are answered with MsgErr; the
// connection stays alive (serveConn only drops a connection on transport
// failure, never on an application error).
func (s *Server) handlePullBag(r *Reader) []byte {
	if s.bags == nil {
		return ErrBody(MsgErr, fmt.Errorf("bag serving unsupported by this node"))
	}
	mode := r.U8()
	if mode > 1 {
		r.fail(fmt.Errorf("rpc: bad pooling mode %d", mode))
	}
	offsets, keys := r.U32s(), r.Keys()
	r.fail(ValidateBagOffsets(offsets, len(keys)))
	if r.err != nil {
		return ErrBody(MsgErr, r.err)
	}
	dim := s.bags.Dim()
	bags := len(offsets) - 1
	if 4*bags*dim > MaxFrame {
		return ErrBody(MsgErr, fmt.Errorf("rpc: bag response %d floats exceeds frame limit", bags*dim))
	}
	out := make([]float32, bags*dim)
	if err := s.bags.PullBags(mode == 1, offsets, keys, out); err != nil {
		return errResp(err)
	}
	return floatsBody(out)
}

// Close stops accepting, closes live connections and waits for handlers.
// The engine is not closed; the caller owns it.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// errResp encodes an engine failure, distinguishing typed data-integrity
// errors (anything whose chain exposes IntegrityError() bool — the pmem
// package's corrupt/poisoned errors, without importing it here) so clients
// see MsgErrCorrupt instead of a generic MsgErr, and overload sheds
// (anything exposing Busy() bool — the serve package's admission-control
// error) so clients see MsgErrBusy and fail over instead of retrying.
func errResp(err error) []byte {
	var ie interface{ IntegrityError() bool }
	if errors.As(err, &ie) && ie.IntegrityError() {
		return ErrBody(MsgErrCorrupt, err)
	}
	var be interface{ Busy() bool }
	if errors.As(err, &be) && be.Busy() {
		return ErrBody(MsgErrBusy, err)
	}
	return ErrBody(MsgErr, err)
}

// okOr answers MsgOK, or err mapped by errResp.
func okOr(err error) []byte {
	if err != nil {
		return errResp(err)
	}
	return OKBody()
}

// dataBuffer starts a MsgData response body.
func dataBuffer() *Buffer { return &Buffer{b: []byte{MsgData}} }

// i64Body is a MsgData response carrying vals.
func i64Body(vals ...int64) []byte {
	out := &Buffer{b: make([]byte, 1, 1+8*len(vals))}
	out.b[0] = MsgData
	for _, v := range vals {
		out.PutI64(v)
	}
	return out.Bytes()
}

// floatsBody is a MsgData response carrying a count-prefixed float list.
func floatsBody(vals []float32) []byte {
	out := &Buffer{b: make([]byte, 1, 1+4+4*len(vals))}
	out.b[0] = MsgData
	out.PutFloats(vals)
	return out.Bytes()
}

// flag encodes a bool as a wire byte.
func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// DecodeScrubReport parses a MsgScrub response payload.
func DecodeScrubReport(r *Reader) (psengine.ScrubReport, error) {
	rep := psengine.ScrubReport{Scanned: r.I64(), Corrupt: r.I64(), Repaired: r.I64(),
		Restored: r.I64(), Fenced: r.I64(), Quarantined: r.I64()}
	return rep, r.err
}

// DecodeStats parses a MsgStats response payload.
func DecodeStats(r *Reader) (psengine.Stats, error) {
	st := psengine.Stats{Entries: r.I64(), CachedEntries: r.I64(), Hits: r.I64(), Misses: r.I64(),
		PMemReads: r.I64(), PMemWrites: r.I64(), Evictions: r.I64(), CheckpointsDone: r.I64()}
	return st, r.err
}
