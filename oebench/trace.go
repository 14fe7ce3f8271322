package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/cluster"
	"openembedding/internal/core"
	"openembedding/internal/psengine"
	"openembedding/internal/serve"
)

// Layers a span can belong to.
const (
	layerCluster = iota // client-side cluster.Client call
	layerEngine         // server-side psengine.Engine call
	layerServe          // server-side rpc.BagServer call
)

// Operations a span can record.
const (
	opPull = iota
	opPush
	opEndPull
	opEndBatch
	opCheckpoint
	opCompleted
	opPullBags
	opRecover
	numOps
)

var opNames = [numOps]string{"pull", "push", "end_pull", "end_batch", "checkpoint", "completed", "pull_bags", "recover"}

// Phases of a run; spans are tagged with the phase they started in.
const (
	phaseSetup = iota
	phaseWindow
	phaseCheck
	phaseRecover
)

// span is one timed call at a layer boundary. Batch-protocol spans are
// linked across the wire by batch id; bag reads carry no id on the wire
// (batch -1), so their server spans are linked to client spans by time
// overlap.
type span struct {
	layer, op, phase uint8
	node             int8  // -1 on the client side
	keys             int32 // keys the call carried
	batch            int64
	start, end       int64 // ns since the tracer's epoch
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	phase atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) setPhase(p int) {
	if t != nil {
		t.phase.Store(int32(p))
	}
}

// record stores one span that started at start (from now) and ends now.
func (t *tracer) record(layer, op uint8, node int, batch, start int64) {
	t.recordKeys(layer, op, node, batch, start, 0)
}

// recordKeys is record for a call that carried keys.
func (t *tracer) recordKeys(layer, op uint8, node int, batch, start int64, keys int) {
	if t == nil {
		return
	}
	s := span{layer: layer, op: op, phase: uint8(t.phase.Load()), node: int8(node), keys: int32(keys), batch: batch, start: start, end: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// gatedPS is the train.ParamServer the workloads drive: it forwards to the
// cluster client, records a cluster-layer span per call when traced, and
// refuses further batches once the measurement window has closed, which is
// how a time-bounded run stops train.Trainer between batches.
type gatedPS struct {
	c      *cluster.Client
	tr     *tracer
	closed atomic.Bool
}

// windowClosedError stops the trainer at the first pull after the window.
type windowClosedError struct{}

func (windowClosedError) Error() string { return "measurement window closed" }

func (g *gatedPS) Pull(batch int64, keys []uint64, dst []float32) error {
	if g.closed.Load() {
		return windowClosedError{}
	}
	st := g.tr.now()
	err := g.c.Pull(batch, keys, dst)
	g.tr.recordKeys(layerCluster, opPull, -1, batch, st, len(keys))
	return err
}

func (g *gatedPS) Push(batch int64, keys []uint64, grads []float32) error {
	st := g.tr.now()
	err := g.c.Push(batch, keys, grads)
	g.tr.recordKeys(layerCluster, opPush, -1, batch, st, len(keys))
	return err
}

func (g *gatedPS) EndPullPhase(batch int64) error {
	st := g.tr.now()
	err := g.c.EndPullPhase(batch)
	g.tr.record(layerCluster, opEndPull, -1, batch, st)
	return err
}

func (g *gatedPS) EndBatch(batch int64) error {
	st := g.tr.now()
	err := g.c.EndBatch(batch)
	g.tr.record(layerCluster, opEndBatch, -1, batch, st)
	return err
}

func (g *gatedPS) RequestCheckpoint(batch int64) error {
	st := g.tr.now()
	err := g.c.RequestCheckpoint(batch)
	g.tr.record(layerCluster, opCheckpoint, -1, batch, st)
	return err
}

func (g *gatedPS) CompletedCheckpoint() (int64, error) {
	st := g.tr.now()
	v, err := g.c.CompletedCheckpoint()
	g.tr.record(layerCluster, opCompleted, -1, -1, st)
	return v, err
}

// PullBags is the timed cluster.Client bag read.
func (g *gatedPS) PullBags(offsets []uint32, keys []uint64, out []float32) error {
	st := g.tr.now()
	err := g.c.PullBags(false, offsets, keys, out)
	g.tr.recordKeys(layerCluster, opPullBags, -1, -1, st, len(keys))
	return err
}

// tracedEngine wraps a node's engine on the server side of the wire. It
// must stay behaviour-preserving: rpc.Server type-asserts the optional
// AdvanceCheckpoints hook, so the wrapper forwards it.
type tracedEngine struct {
	e    *core.Engine
	node int
	tr   *tracer

	// The checkpoint bookkeeping below feeds engine.ckpt_lag_batches: how
	// many batches a requested checkpoint trails before it is durable.
	mu      sync.Mutex
	pending []int64
	lags    sample
}

func (t *tracedEngine) Name() string { return t.e.Name() }
func (t *tracedEngine) Dim() int     { return t.e.Dim() }

func (t *tracedEngine) Pull(batch int64, keys []uint64, dst []float32) error {
	st := t.tr.now()
	err := t.e.Pull(batch, keys, dst)
	t.tr.recordKeys(layerEngine, opPull, t.node, batch, st, len(keys))
	return err
}

func (t *tracedEngine) EndPullPhase(batch int64) {
	st := t.tr.now()
	t.e.EndPullPhase(batch)
	t.tr.record(layerEngine, opEndPull, t.node, batch, st)
}

func (t *tracedEngine) WaitMaintenance() { t.e.WaitMaintenance() }

func (t *tracedEngine) Push(batch int64, keys []uint64, grads []float32) error {
	st := t.tr.now()
	err := t.e.Push(batch, keys, grads)
	t.tr.record(layerEngine, opPush, t.node, batch, st)
	return err
}

func (t *tracedEngine) EndBatch(batch int64) error {
	st := t.tr.now()
	err := t.e.EndBatch(batch)
	t.tr.record(layerEngine, opEndBatch, t.node, batch, st)
	t.noteProgress(batch)
	return err
}

func (t *tracedEngine) RequestCheckpoint(batch int64) error {
	st := t.tr.now()
	err := t.e.RequestCheckpoint(batch)
	t.tr.record(layerEngine, opCheckpoint, t.node, batch, st)
	if err == nil {
		t.mu.Lock()
		t.pending = append(t.pending, batch)
		t.mu.Unlock()
	}
	return err
}

func (t *tracedEngine) CompletedCheckpoint() int64 { return t.e.CompletedCheckpoint() }
func (t *tracedEngine) Stats() psengine.Stats      { return t.e.Stats() }
func (t *tracedEngine) Close() error               { return t.e.Close() }

// AdvanceCheckpoints forwards the optional checkpoint-progress hook.
func (t *tracedEngine) AdvanceCheckpoints() error {
	st := t.tr.now()
	err := t.e.AdvanceCheckpoints()
	t.tr.record(layerEngine, opCompleted, t.node, -1, st)
	return err
}

// noteProgress records, after EndBatch(batch), the lag of every pending
// checkpoint that is now durable.
func (t *tracedEngine) noteProgress(batch int64) {
	done := t.e.CompletedCheckpoint()
	t.mu.Lock()
	defer t.mu.Unlock()
	k := 0
	for _, p := range t.pending {
		if p <= done {
			t.lags.add(float64(batch - p))
			continue
		}
		t.pending[k] = p
		k++
	}
	t.pending = t.pending[:k]
}

// tracedBags wraps a node's serve.Handler, the rpc.BagServer of the
// serving tier.
type tracedBags struct {
	h    atomic.Pointer[serve.Handler]
	dim  int
	node int
	tr   *tracer
}

func (b *tracedBags) Dim() int { return b.dim }

func (b *tracedBags) PullBags(mean bool, offsets []uint32, keys []uint64, out []float32) error {
	st := b.tr.now()
	err := b.h.Load().PullBags(mean, offsets, keys, out)
	b.tr.recordKeys(layerServe, opPullBags, b.node, -1, st, len(keys))
	return err
}

// chromeEvent is one complete event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

var layerNames = [...]string{layerCluster: "cluster", layerEngine: "engine", layerServe: "serve"}

var phaseNames = [...]string{phaseSetup: "setup", phaseWindow: "window", phaseCheck: "check", phaseRecover: "recover"}

// writeChromeTrace writes spans as a Chrome trace (chrome://tracing or
// ui.perfetto.dev): process 0 is the client, process i+1 is node i.
func writeChromeTrace(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: layerNames[s.layer] + "." + opNames[s.op],
			Cat:  layerNames[s.layer],
			Ph:   "X",
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Pid:  int(s.node) + 1,
			Args: map[string]any{"batch": s.batch, "keys": s.keys, "phase": phaseNames[s.phase]},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
