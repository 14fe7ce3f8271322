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

// DefaultTimeout is the dial / per-request read / per-request write
// deadline applied when an Options field is zero. A hung or partitioned
// server therefore turns into an error instead of blocking a cluster
// fan-out forever.
const DefaultTimeout = 30 * time.Second

// NoTimeout disables a deadline (pass it in an Options field).
const NoTimeout = time.Duration(-1)

// RetryPolicy bounds the client's transparent redial + retry of requests
// that failed on the transport. Remote application errors and epoch fences
// are never retried.
type RetryPolicy struct {
	// MaxAttempts is the total tries per request, including the first.
	// 0 (the default) disables fault tolerance entirely: the client keeps
	// the legacy semantics where the first I/O failure poisons the
	// connection and every later call fails fast. Any value >= 1 enables
	// redial-on-demand and the epoch handshake; values > 1 also retry a
	// failed request after a backoff.
	MaxAttempts int
	// Backoff is the base delay before the first retry; each further retry
	// doubles it. Defaults to 2ms when MaxAttempts > 1.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Defaults to 250ms.
	MaxBackoff time.Duration
	// Seed drives the backoff jitter (a seeded splitmix64 stream — never
	// the global math/rand — so chaos runs replay deterministically).
	Seed uint64
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts >= 1 }

// Options configures a Client.
type Options struct {
	// DialTimeout bounds connection establishment. 0 means DefaultTimeout;
	// NoTimeout disables the bound.
	DialTimeout time.Duration
	// ReadTimeout bounds each request's response wait, measured from when
	// the request hits the wire. 0 means DefaultTimeout; NoTimeout
	// disables it.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request's write+flush. 0 means
	// DefaultTimeout; NoTimeout disables it.
	WriteTimeout time.Duration
	// Retry enables transparent redial + bounded retry with exponential
	// backoff and seeded jitter. The zero value keeps the legacy
	// poison-on-failure semantics.
	Retry RetryPolicy
	// Inject, when set, threads the deterministic fault injector into the
	// transport: dial faults and wire faults on every connection. Nil (the
	// default) leaves the hot path untouched.
	Inject *faultinject.Injector
	// Label is the injector stream label for this client's connections.
	// Labels must be deterministic across runs (a node index, not an
	// ephemeral address); it defaults to the dialed address.
	Label string
	// Budget, when set, is the shared retry token bucket: every transparent
	// retry (not first attempts) withdraws a token and gives up with the
	// last error when the bucket is empty. Sharing one Budget across many
	// clients bounds the total retry amplification a dead node can cause.
	// Nil keeps unbudgeted retries.
	Budget *Budget
	// Obs, when set, receives client metrics: rpc_client_rtt_ns,
	// rpc_client_bytes_out/in, rpc_client_inflight, rpc_client_timeouts,
	// rpc_client_retries, rpc_client_redials.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	def := func(d time.Duration) time.Duration {
		switch {
		case d == 0:
			return DefaultTimeout
		case d < 0:
			return 0 // disabled
		default:
			return d
		}
	}
	o.DialTimeout = def(o.DialTimeout)
	o.ReadTimeout = def(o.ReadTimeout)
	o.WriteTimeout = def(o.WriteTimeout)
	if o.Retry.MaxAttempts > 1 {
		if o.Retry.Backoff == 0 {
			o.Retry.Backoff = 2 * time.Millisecond
		}
		if o.Retry.MaxBackoff == 0 {
			o.Retry.MaxBackoff = 250 * time.Millisecond
		}
	}
	return o
}

// ErrTimeout matches (via errors.Is) every request that failed on an I/O
// deadline.
var ErrTimeout = errors.New("rpc: request timed out")

// TimeoutError is the typed error for a request that hit a deadline.
type TimeoutError struct {
	Addr  string        // server address
	Op    string        // request kind ("pull", "push", ...)
	After time.Duration // the deadline that expired
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("rpc: %s to %s timed out after %v", e.Op, e.Addr, e.After)
}

// Is reports true for ErrTimeout targets so errors.Is(err, rpc.ErrTimeout)
// works without unwrapping to the concrete type.
func (e *TimeoutError) Is(target error) bool { return target == ErrTimeout }

// Timeout implements the net.Error convention.
func (e *TimeoutError) Timeout() bool { return true }

// clientIDs assigns process-unique client IDs (the dedup key mutating
// requests carry).
var clientIDs atomic.Int64

// Client is a connection to one parameter-server node. A Client serializes
// its requests; workers that want parallelism across shards hold one Client
// per node (as internal/cluster does).
//
// Without a RetryPolicy, any I/O failure — including a timeout — breaks the
// connection permanently: the request/response framing may be
// desynchronized (a late response could answer the wrong request), so the
// client closes the socket and every later call fails fast with the
// original error.
//
// With a RetryPolicy, a broken connection is redialed — on the failing
// request (up to MaxAttempts, with exponential backoff + seeded jitter) and
// on demand by later requests. Redialing performs the MsgHello epoch
// handshake: if the server's epoch moved (it crashed+recovered or rolled
// back), the client is *fenced* — batch-protocol requests fail with a typed
// *EpochError until AdoptEpoch re-synchronizes — so a stale client can
// never keep pushing into a recovered node. Mutating requests carry a
// client-assigned sequence number; the server replays its cached response
// for a retried sequence, making retries at-most-once.
type Client struct {
	addr  string
	label string
	opts  Options
	id    int64 // process-unique client ID for server-side dedup

	mu   sync.Mutex // serializes requests; guards all fields below
	br   *bufio.Reader
	bw   *bufio.Writer
	err  error // last I/O failure; conn is broken while non-nil
	seq  int64 // sequence of the last mutating request
	rng  uint64
	ever bool  // a connection has been established at least once
	ep   int64 // epoch adopted at the first handshake (-1 before)
	se   int64 // server epoch observed most recently

	// connMu guards conn and closed; Close takes it without mu so it can
	// interrupt an in-flight request, and connect installs new conns under
	// it so a racing Close can never leak one.
	connMu sync.Mutex
	conn   net.Conn
	closed bool

	// testRedialDelay widens the dial/install race window in tests.
	testRedialDelay time.Duration

	// metrics (nil, and free, without Options.Obs)
	rtt      *obs.Histogram
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	inflight *obs.Gauge
	timeouts *obs.Counter
	retries  *obs.Counter
	redials  *obs.Counter
}

// Dial connects with default options (30s dial/read/write deadlines).
func Dial(addr string) (*Client, error) { return DialOpts(addr, Options{}) }

// DialOpts connects to a server with explicit options.
func DialOpts(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	c := &Client{
		addr:  addr,
		label: opts.Label,
		opts:  opts,
		id:    clientIDs.Add(1),
		ep:    -1,
		se:    -1,
	}
	if c.label == "" {
		c.label = addr
	}
	c.rng = opts.Retry.Seed ^ uint64(c.id)*0x9e3779b97f4a7c15
	if reg := opts.Obs; reg != nil {
		c.rtt = reg.Histogram("rpc_client_rtt_ns")
		c.bytesIn = reg.Counter("rpc_client_bytes_in")
		c.bytesOut = reg.Counter("rpc_client_bytes_out")
		c.inflight = reg.Gauge("rpc_client_inflight")
		c.timeouts = reg.Counter("rpc_client_timeouts")
		c.retries = reg.Counter("rpc_client_retries")
		c.redials = reg.Counter("rpc_client_redials")
	}
	if err := c.connect(); err != nil {
		// A fault-tolerant client defers transient initial-connect failures
		// to redial-on-demand: the first request's retry loop heals them
		// exactly like a mid-run disconnect. Legacy clients (and permanent
		// errors, e.g. a server that rejects the handshake) still fail here.
		if !opts.Retry.enabled() || !IsRecoverable(err) {
			return nil, err
		}
	}
	return c, nil
}

// Addr returns the server address this client dialed.
func (c *Client) Addr() string { return c.addr }

// Epoch returns the server epoch this client is synchronized to, or -1
// before the first handshake (legacy mode never handshakes).
func (c *Client) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// connect dials, installs the connection (unless Close won the race) and,
// in fault-tolerant mode, runs the epoch handshake. Caller holds c.mu.
func (c *Client) connect() error {
	if f := c.opts.Inject.On(faultinject.PointDial, c.label); f.Kind != faultinject.KindNone {
		switch f.Kind {
		case faultinject.KindDelay, faultinject.KindSlow:
			c.opts.Inject.Sleep(f.Delay)
		case faultinject.KindPartition:
			// A partitioned dial is silent SYN loss: the deadline expires.
			return &TimeoutError{Addr: c.addr, Op: "dial", After: c.opts.DialTimeout}
		default:
			return &TransportError{Addr: c.addr, Op: "dial", Err: faultinject.ErrInjected}
		}
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		if isTimeout(err) {
			return &TimeoutError{Addr: c.addr, Op: "dial", After: c.opts.DialTimeout}
		}
		return &TransportError{Addr: c.addr, Op: "dial", Err: err}
	}
	if c.testRedialDelay > 0 {
		time.Sleep(c.testRedialDelay)
	}
	conn = c.opts.Inject.WrapConn(conn, c.label)
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		conn.Close()
		return ErrClientClosed
	}
	c.conn = conn
	c.connMu.Unlock()
	c.br = bufio.NewReaderSize(conn, 1<<16)
	c.bw = bufio.NewWriterSize(conn, 1<<16)
	c.err = nil
	if c.ever {
		c.redials.Add(1)
	}
	c.ever = true
	if c.opts.Retry.enabled() {
		return c.hello(c.ep)
	}
	return nil
}

// hello runs the epoch handshake on the current connection: it announces
// the client's known epoch (-1 adopts the server's) and learns the
// server's. Caller holds c.mu.
func (c *Client) hello(epoch int64) error {
	b := NewBuffer(MsgHello, 0)
	b.PutI64(epoch)
	b.PutI64(c.id)
	resp, err := c.roundTrip("hello", b.Bytes())
	if err != nil {
		return err
	}
	r, err := DecodeResponse(resp)
	if err != nil {
		return err
	}
	se := r.I64()
	if r.err != nil {
		return r.err
	}
	c.se = se
	if c.ep < 0 {
		c.ep = se
	}
	return nil
}

// AdoptEpoch re-synchronizes a fenced client: it re-handshakes with the
// server (redialing first if the connection is broken) and adopts the
// server's current epoch. The cluster recovery protocol calls it after a
// rollback; adopting an epoch without rolling back would silently ride
// across a recovery, so nothing else does.
func (c *Client) AdoptEpoch() (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ep = -1
	if c.err != nil || !c.ever {
		if err := c.connect(); err != nil {
			return -1, err
		}
	} else if err := c.hello(-1); err != nil {
		// The handshake itself may hit a broken conn: redial once.
		if !IsRecoverable(err) {
			return -1, err
		}
		if err := c.connect(); err != nil {
			return -1, err
		}
	}
	c.ep = c.se
	return c.ep, nil
}

// ensureConn redials a broken connection when fault tolerance is enabled.
// Caller holds c.mu.
func (c *Client) ensureConn() error {
	c.connMu.Lock()
	closed := c.closed
	c.connMu.Unlock()
	if closed {
		return ErrClientClosed
	}
	if c.err == nil && c.ever {
		return nil
	}
	if !c.opts.Retry.enabled() && c.ever {
		return c.err // legacy: poisoned for good
	}
	return c.connect()
}

// fail marks the connection broken with the request's error, translating
// deadline expiries into *TimeoutError and other I/O failures into
// *TransportError. Caller holds c.mu.
func (c *Client) fail(op string, after time.Duration, err error) error {
	if isTimeout(err) {
		err = &TimeoutError{Addr: c.addr, Op: op, After: after}
		c.timeouts.Add(1)
	} else {
		err = &TransportError{Addr: c.addr, Op: op, Err: err}
	}
	c.err = err
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.connMu.Unlock()
	return err
}

// roundTrip writes one frame and reads the response frame on the current
// connection. Caller holds c.mu and has ensured a connection.
func (c *Client) roundTrip(op string, body []byte) ([]byte, error) {
	var start time.Duration
	if c.rtt != nil {
		start = c.opts.Obs.Now()
	}
	if c.opts.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	}
	// Propagate the read deadline — the longest this caller will wait for
	// the response — so the server can abandon work we have given up on.
	if err := WriteFrameDeadline(c.bw, body, c.opts.ReadTimeout); err != nil {
		return nil, c.fail(op, c.opts.WriteTimeout, err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.fail(op, c.opts.WriteTimeout, err)
	}
	if c.opts.ReadTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
	}
	resp, err := ReadFrame(c.br)
	if err != nil {
		return nil, c.fail(op, c.opts.ReadTimeout, err)
	}
	c.bytesOut.Add(int64(len(body)) + frameHdrSize)
	c.bytesIn.Add(int64(len(resp)) + frameHdrSize)
	if c.rtt != nil {
		c.rtt.Observe(c.opts.Obs.Now() - start)
	}
	return resp, nil
}

// retryable reports whether a failed attempt may be retried: transport
// failures and timeouts only — never remote application errors or epoch
// fences.
func retryable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrTimeout)
}

// backoff returns the jittered exponential delay before retry attempt a
// (a >= 1). The jitter stream is seeded (RetryPolicy.Seed), never global
// math/rand, so chaos runs replay.
func (c *Client) backoff(a int) time.Duration {
	d := c.opts.Retry.Backoff << uint(a-1)
	if max := c.opts.Retry.MaxBackoff; d > max {
		d = max
	}
	// xorshift step of the seeded stream; jitter in [0.5, 1.5).
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	frac := float64(c.rng>>11) / float64(1<<53)
	return time.Duration(float64(d) * (0.5 + frac))
}

// do sends one request body and returns the decoded response reader.
// body[0] is the message type (set by NewBuffer).
func (c *Client) do(body []byte) (*Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doLocked(body)
}

// doLocked runs the request with redial + bounded retry. Caller holds c.mu.
func (c *Client) doLocked(body []byte) (*Reader, error) {
	spec := &msgSpecs[body[0]]
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	attempts := c.opts.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if !c.opts.Budget.TryRetry() {
				return nil, lastErr
			}
			c.retries.Add(1)
			time.Sleep(c.backoff(a))
		}
		if err := c.ensureConn(); err != nil {
			lastErr = err
			if !retryable(err) {
				return nil, err
			}
			continue
		}
		// Client-side fence: a redial that found the server at a newer
		// epoch leaves this client fenced until AdoptEpoch. Failing here
		// (rather than on the wire) keeps the error crisp even when the
		// server is mid-recovery.
		if c.opts.Retry.enabled() && c.ep >= 0 && c.se != c.ep && spec.fenced {
			return nil, &EpochError{Addr: c.addr, ClientEpoch: c.ep, ServerEpoch: c.se}
		}
		resp, err := c.roundTrip(spec.name, body)
		if err != nil {
			lastErr = err
			if !retryable(err) {
				return nil, err
			}
			continue
		}
		// Any response at all proves the peer alive: regrow the retry
		// budget, whatever the response says.
		c.opts.Budget.OnSuccess()
		r, err := DecodeResponse(resp)
		if err != nil {
			// Attribute a remote rejection to this server; a server-side
			// fence also records the newer epoch.
			var ee *EpochError
			var re *RemoteError
			if errors.As(err, &ee) {
				c.se = ee.ServerEpoch
				ee.Addr, ee.ClientEpoch = c.addr, c.ep
			} else if errors.As(err, &re) {
				re.Addr = c.addr
			}
		}
		return r, err
	}
	return nil, lastErr
}

// doMutating assigns the next sequence number (0 in legacy mode — no
// dedup) and sends a mutating request: the header, the client ID and
// sequence, then for MsgPush the keys and gradients. Retried attempts
// reuse the same body, hence the same sequence, which is what lets the
// server dedup replays.
func (c *Client) doMutating(msg byte, batch int64, keys []uint64, grads []float32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var seq int64
	if c.opts.Retry.enabled() {
		c.seq++
		seq = c.seq
	}
	b := NewBuffer(msg, batch)
	b.PutI64(c.id)
	b.PutI64(seq)
	if msg == MsgPush {
		b.PutKeys(keys)
		b.PutFloats(grads)
	}
	_, err := c.doLocked(b.Bytes())
	return err
}

// doFloats sends a request whose response is a float list.
func (c *Client) doFloats(b *Buffer) ([]float32, error) {
	r, err := c.do(b.Bytes())
	if err != nil {
		return nil, err
	}
	vals := r.Floats()
	return vals, r.err
}

// doI64 sends a request whose response is one int64.
func (c *Client) doI64(b *Buffer) (int64, error) {
	r, err := c.do(b.Bytes())
	if err != nil {
		return 0, err
	}
	v := r.I64()
	return v, r.err
}

// Pull fetches weights for keys (len(keys)*dim floats). Pull is idempotent,
// so it needs no sequence number under retries.
func (c *Client) Pull(batch int64, keys []uint64) ([]float32, error) {
	b := NewBuffer(MsgPull, batch)
	b.PutKeys(keys)
	return c.doFloats(b)
}

// Push sends gradients for keys. The request carries the client ID and a
// sequence number so a retried push is applied at most once.
func (c *Client) Push(batch int64, keys []uint64, grads []float32) error {
	return c.doMutating(MsgPush, batch, keys, grads)
}

// EndPullPhase signals pull completion for batch.
func (c *Client) EndPullPhase(batch int64) error {
	return c.doMutating(MsgEndPullPhase, batch, nil, nil)
}

// EndBatch seals batch.
func (c *Client) EndBatch(batch int64) error {
	return c.doMutating(MsgEndBatch, batch, nil, nil)
}

// RequestCheckpoint asks the node to checkpoint batch.
func (c *Client) RequestCheckpoint(batch int64) error {
	return c.doMutating(MsgCheckpoint, batch, nil, nil)
}

// CompletedCheckpoint reads the node's durable checkpoint progress.
func (c *Client) CompletedCheckpoint() (int64, error) {
	return c.doI64(NewBuffer(MsgCompletedCkpt, 0))
}

// Rollback asks the node to roll its engine back to the given checkpoint
// (exempt from epoch fencing — it is the recovery path). Idempotent, so
// safe under retries without a sequence number.
func (c *Client) Rollback(target int64) error {
	_, err := c.do(NewBuffer(MsgRollback, target).Bytes())
	return err
}

// Scrub asks the node to run one full integrity pass over its persisted
// records and returns the report (exempt from epoch fencing — it is a
// repair operation). Idempotent in effect: a re-run re-verifies already
// healed records.
func (c *Client) Scrub() (psengine.ScrubReport, error) {
	r, err := c.do(NewBuffer(MsgScrub, 0).Bytes())
	if err != nil {
		return psengine.ScrubReport{}, err
	}
	return DecodeScrubReport(r)
}

// Stats fetches the node's counters.
func (c *Client) Stats() (psengine.Stats, error) {
	r, err := c.do(NewBuffer(MsgStats, 0).Bytes())
	if err != nil {
		return psengine.Stats{}, err
	}
	return DecodeStats(r)
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.do(NewBuffer(MsgPing, 0).Bytes())
	return err
}

// NodeHealth is what a ping learns about a node: its current epoch,
// whether it serves bag reads, and the measured round-trip time.
type NodeHealth struct {
	Epoch   int64
	Serving bool
	RTT     time.Duration
}

// PingInfo round-trips a health probe and decodes the node's epoch and
// serving status (exempt from epoch fencing, like Ping — it is how the
// failover path and operators observe a node).
func (c *Client) PingInfo() (NodeHealth, error) {
	start := time.Now()
	r, err := c.do(NewBuffer(MsgPing, 0).Bytes())
	if err != nil {
		return NodeHealth{}, err
	}
	h := NodeHealth{RTT: time.Since(start), Epoch: r.I64(), Serving: r.U8() == 1}
	if r.err != nil {
		return NodeHealth{}, r.err
	}
	return h, nil
}

// MigrateRange exports up to max entries of the given hash intervals with
// dataVersion >= since and key > afterKey, in ascending key order; more
// reports whether the range continues past the page. Idempotent (a read),
// so safe under retries.
func (c *Client) MigrateRange(since int64, afterKey uint64, max int, ivs []HashInterval) ([]MigEntry, bool, error) {
	b := NewBuffer(MsgMigrateRange, since)
	b.PutI64(int64(afterKey))
	b.PutI64(int64(max))
	putIntervals(b, ivs)
	r, err := c.do(b.Bytes())
	if err != nil {
		return nil, false, err
	}
	more, entries := r.U8() == 1, readMigEntries(r)
	if r.err != nil {
		return nil, false, r.err
	}
	return entries, more, nil
}

// AdoptRange installs migrated entries on the node; they are durable when
// the call returns. Idempotent — adopting the same entries twice converges
// — so safe under retries.
func (c *Client) AdoptRange(entries []MigEntry) error {
	b := NewBuffer(MsgAdoptRange, 0)
	putMigEntries(b, entries)
	_, err := c.do(b.Bytes())
	return err
}

// DropRange removes the intervals' keys from the node — index, cache and
// durable records — returning how many entries were dropped. Idempotent,
// so safe under retries.
func (c *Client) DropRange(ivs []HashInterval) (int64, error) {
	b := NewBuffer(MsgDropRange, 0)
	putIntervals(b, ivs)
	return c.doI64(b)
}

// Replicate installs read-only serving replicas of rows (len(keys) rows,
// row-major) on the node. Idempotent, so safe under retries.
func (c *Client) Replicate(keys []uint64, rows []float32) error {
	b := NewBuffer(MsgReplicate, 0)
	b.PutKeys(keys)
	b.PutFloats(rows)
	_, err := c.do(b.Bytes())
	return err
}

// Close closes the connection. A redial racing with Close observes the
// closed flag and discards its fresh connection, so Close is final: no
// socket survives it.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	if err := c.conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
