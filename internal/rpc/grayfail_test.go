package rpc

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openembedding/internal/obs"
)

// Gray-failure hardening tests (DESIGN.md §16): the shared retry budget
// bounds retry amplification, and the server abandons work whose caller's
// propagated deadline already expired.

// TestRetryStormBudgetBounded is the retry-storm regression: many clients
// hammering one dead node share a retry budget, so the total connection
// attempts stay near clients + Max instead of clients × MaxAttempts.
func TestRetryStormBudgetBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conn.Close() // every request attempt fails mid-handshake
		}
	}()

	reg := obs.NewRegistry()
	const clients = 16
	const budgetMax = 8
	budget := NewBudget(budgetMax, 0)
	budget.SetObs(reg)
	opts := Options{
		Retry: RetryPolicy{
			MaxAttempts: 4,
			Backoff:     100 * time.Microsecond,
			MaxBackoff:  time.Millisecond,
			Seed:        9,
		},
		Budget:       budget,
		DialTimeout:  2 * time.Second,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialOpts(ln.Addr().String(), opts)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			if err := c.Ping(); err == nil {
				t.Error("ping succeeded against a connection-killing listener")
			}
		}()
	}
	wg.Wait()

	// Per client: one initial-dial connect plus one free first attempt;
	// everything beyond that must have withdrawn a budget token.
	limit := int64(clients*2 + budgetMax)
	if got := accepts.Load(); got > limit {
		t.Fatalf("retry storm made %d connection attempts, budget bounds it to %d", got, limit)
	}
	if got := accepts.Load(); got <= clients {
		t.Fatalf("only %d connection attempts for %d clients; storm never happened", got, clients)
	}
	if got := reg.Snapshot().Counters["rpc_retry_budget_exhausted"]; got == 0 {
		t.Fatal("rpc_retry_budget_exhausted = 0; the bucket never emptied under a 48-retry demand")
	}
}

func TestBudgetTokenArithmetic(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBudget(2, 0.5)
	b.SetObs(reg)
	if !b.TryRetry() || !b.TryRetry() {
		t.Fatal("a full bucket of 2 denied one of its first two retries")
	}
	if b.TryRetry() {
		t.Fatal("empty bucket allowed a retry")
	}
	if got := reg.Snapshot().Counters["rpc_retry_budget_exhausted"]; got != 1 {
		t.Fatalf("exhausted counter = %d, want 1", got)
	}
	b.OnSuccess() // +0.5: still below 1 token
	if b.TryRetry() {
		t.Fatal("0.5 tokens allowed a retry")
	}
	b.OnSuccess() // 1.0
	if !b.TryRetry() {
		t.Fatal("1 token denied a retry")
	}
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v after many successes, want capped at max 2", got)
	}
	// Nil budget allows everything.
	var nilB *Budget
	if !nilB.TryRetry() {
		t.Fatal("nil budget denied a retry")
	}
}

// TestBudgetWireRetryWithdrawsOneToken pins the budget accounting of a single
// request: against a refused port, the free first attempt fails, the one
// retry MaxAttempts allows withdraws exactly one token, and the request
// then fails degraded so serving reads route around the peer.
func TestBudgetWireRetryWithdrawsOneToken(t *testing.T) {
	// A refused port: listen, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	budget := NewBudget(3, 0)
	c, err := DialOpts(addr, Options{
		Retry:       RetryPolicy{MaxAttempts: 2, Backoff: 100 * time.Microsecond, Seed: 3},
		Budget:      budget,
		DialTimeout: time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v (initial connect failures defer to redial-on-demand)", err)
	}
	defer c.Close()

	err = c.Ping()
	if err == nil {
		t.Fatal("ping to a refused port succeeded")
	}
	if !IsDegraded(err) {
		t.Fatalf("IsDegraded(%v) = false, want true", err)
	}
	if got := budget.Tokens(); got != 2 {
		t.Fatalf("budget tokens = %v after one failed ping, want 2 (one wire retry)", got)
	}
}

// TestDispatchDeadlineAbandon: a request whose propagated deadline expired
// while it queued is answered MsgErrBusy without touching the engine.
func TestDispatchDeadlineAbandon(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Server{engine: testEngine(t)}
	s.reg = reg
	s.abandoned = reg.Counter("rpc_server_deadline_abandoned")
	elapsed := time.Duration(0)
	base := time.Unix(1000, 0)
	s.now = func() time.Time { return base.Add(elapsed) }

	ping := NewBuffer(MsgPing, 0).Bytes()

	// Fresh request, generous deadline: served normally.
	bound := epochUnbound
	arrival := s.now()
	resp := s.dispatchDeadline(&bound, ping, arrival, 5*time.Millisecond)
	if _, err := DecodeResponse(resp); err != nil {
		t.Fatalf("fresh request rejected: %v", err)
	}

	// 10ms of simulated queueing against a 5ms budget: abandoned busy.
	arrival = s.now()
	elapsed += 10 * time.Millisecond
	resp = s.dispatchDeadline(&bound, ping, arrival, 5*time.Millisecond)
	if _, err := DecodeResponse(resp); !errors.Is(err, ErrBusy) {
		t.Fatalf("expired request decoded to %v, want ErrBusy", err)
	}
	if got := reg.Snapshot().Counters["rpc_server_deadline_abandoned"]; got != 1 {
		t.Fatalf("abandoned counter = %d, want 1", got)
	}

	// Deadline 0 means "none propagated": never abandoned, however stale.
	arrival = s.now()
	elapsed += time.Hour
	resp = s.dispatchDeadline(&bound, ping, arrival, 0)
	if _, err := DecodeResponse(resp); err != nil {
		t.Fatalf("deadline-free request abandoned: %v", err)
	}
	if got := reg.Snapshot().Counters["rpc_server_deadline_abandoned"]; got != 1 {
		t.Fatalf("abandoned counter = %d, want still 1", got)
	}
}

func TestFrameDeadlineRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{MsgPing, 1, 2, 3}
	if err := WriteFrameDeadline(&buf, body, 1500*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	got, dl, err := ReadFrameDeadline(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body = %v, want %v", got, body)
	}
	if dl != 1500*time.Microsecond {
		t.Fatalf("deadline = %v, want 1.5ms", dl)
	}

	// Plain WriteFrame propagates no deadline.
	buf.Reset()
	if err := WriteFrame(&buf, body); err != nil {
		t.Fatal(err)
	}
	if _, dl, err := ReadFrameDeadline(bufio.NewReader(&buf)); err != nil || dl != 0 {
		t.Fatalf("plain frame deadline = (%v, %v), want (0, nil)", dl, err)
	}
}

// TestBusyErrorMappedEndToEnd: a handler error that reports Busy() comes
// back over the wire as MsgErrBusy and decodes to a *RemoteError the
// failover layer treats as degraded but the retry loop does not retry.
// shedError reports Busy(), like the serve package's admission-control shed.
type shedError struct{}

func (shedError) Error() string { return "shed: inflight watermark exceeded" }
func (shedError) Busy() bool    { return true }

func TestBusyErrorMappedEndToEnd(t *testing.T) {
	resp := errResp(shedError{})
	_, err := DecodeResponse(resp)
	if err == nil {
		t.Fatal("busy body decoded as success")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != MsgErrBusy || re.Msg != "shed: inflight watermark exceeded" {
		t.Fatalf("decoded err = %#v, want a MsgErrBusy *RemoteError", err)
	}
	if errors.Is(err, ErrRemoteCorrupt) {
		t.Fatal("busy decoded as corruption")
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want Is(ErrBusy)", err)
	}
	if IsRecoverable(err) {
		t.Fatal("busy is retryable; retrying a shedding node makes overload worse")
	}
	if !IsDegraded(err) {
		t.Fatal("busy must count as degraded so reads fail over")
	}
}

// FuzzPingDecode fuzzes the client-side decode of MsgPing responses
// (PingInfo's epoch + serving-flag layout): arbitrary bytes must never
// panic, only error.
func FuzzPingDecode(f *testing.F) {
	ok := &Buffer{b: []byte{MsgData}}
	ok.PutI64(7)
	ok.PutU8(1)
	f.Add(ok.Bytes())
	f.Add([]byte{MsgData})
	f.Add([]byte{MsgErr, 'x'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := DecodeResponse(body)
		if err != nil {
			return
		}
		epoch, serving := r.I64(), r.U8()
		if r.Err() != nil && serving != 0 {
			t.Fatalf("failed decode of %v returned serving %d (epoch %d), want 0", body, serving, epoch)
		}
	})
}
