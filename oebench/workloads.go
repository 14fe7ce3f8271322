package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"openembedding/internal/model"
	"openembedding/internal/psengine"
	"openembedding/internal/train"
	"openembedding/internal/workload"
)

// dim is the embedding dimension of every workload.
const dim = 16

// criteoScale shrinks the Criteo field cardinalities to ~49k keys.
const criteoScale = 0.01

// load is one workload's traffic against one cluster. A load is used for
// one set-up; window runs at most once, after setup.
type load interface {
	// setup preloads and warms the cluster; it returns when measurement
	// can start.
	setup(c *testCluster) error
	// window drives traffic for d. nominalOnly restricts an open-loop
	// workload to its nominal rate (the traced run's setting).
	window(d time.Duration, nominalOnly bool) (windowOut, error)
	// abort stops a load whose window will not run.
	abort()
	// final returns the next free batch id, the keys whose rows the
	// post-window checks read, and the rows those keys must hold (nil
	// when the window wrote to them).
	final() (next int64, keys []uint64, want []float32, err error)
}

// windowOut is what a measurement window produced.
type windowOut struct {
	lat       sample        // per-op latency, ns
	ops       int           // ops completed
	elapsed   time.Duration // wall time of the window
	opsPerSec float64       // the workload's throughput figure
	failed    int64
	late      sample // open-loop generator lateness, ns (empty for closed loops)
	lines     []string
	keys      int64 // embedding keys moved (embed-sync)
}

type workloadSpec struct {
	name string
	why  string
	// node is the per-node store configuration.
	node psengine.Config
	// readOp is the window's read, whose wire sizes the loopback floor
	// mimics.
	readOp  uint8
	newLoad func(seed int64) load
}

var workloads = []workloadSpec{
	{
		name:    "train-deepfm",
		why:     "User-facing training: train.Trainer with DeepFM; dense compute hides PS maintenance, so model-layer changes show here and PS-layer changes barely do.",
		node:    psengine.Config{Dim: dim, Capacity: 1 << 15, CacheEntries: 1 << 14},
		readOp:  opPull,
		newLoad: func(seed int64) load { return &trainLoad{seed: seed} },
	},
	{
		name:    "embed-sync",
		why:     "Batch protocol with fixed gradients and no compute, about 0.69 of lookups missing to PMem: cluster, rpc, engine, pmem and recovery changes show here.",
		node:    psengine.Config{Dim: dim, Capacity: 1 << 15, CacheEntries: 2048},
		readOp:  opPull,
		newLoad: func(seed int64) load { return &syncLoad{seed: seed} },
	},
	{
		name:   "serve-flash",
		why:    "Read-only flash-crowd bag reads over the lock-free snapshot path, open loop then saturated: serve and wire changes show here, engine-write changes do not.",
		node:   psengine.Config{Dim: dim, Capacity: 1 << 15, CacheEntries: 1 << 13},
		readOp: opPullBags,
		newLoad: func(seed int64) load {
			l := &serveLoad{seed: seed}
			l.makeBank()
			return l
		},
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// fixedGrads returns a deterministic gradient pattern of n floats.
func fixedGrads(n int, seed int64) []float32 {
	g := make([]float32, n)
	x := uint64(seed)
	for i := range g {
		x = x*6364136223846793005 + 1442695040888963407
		g[i] = float32(int64(x>>40)%2001-1000) * 1e-6
	}
	return g
}

// runBatch runs one batch of the protocol: it pulls keys into rows,
// pushes grads (none when grads is nil) and requests a checkpoint when
// ckpt is set.
func runBatch(ps *gatedPS, b int64, keys []uint64, rows, grads []float32, ckpt bool) error {
	if err := ps.Pull(b, keys, rows); err != nil {
		return err
	}
	if err := ps.EndPullPhase(b); err != nil {
		return err
	}
	if grads != nil {
		if err := ps.Push(b, keys, grads[:len(keys)*dim]); err != nil {
			return err
		}
	}
	if err := ps.EndBatch(b); err != nil {
		return err
	}
	if ckpt {
		return ps.RequestCheckpoint(b)
	}
	return nil
}

// ---- train-deepfm ----

const (
	trainWorkers = 2
	trainBatch   = 512
	trainWarm    = 5 // warm-up steps inside set-up
	trainCkpt    = 10
)

type trainLoad struct {
	seed   int64
	c      *testCluster
	starts []time.Time // BatchStart time per batch, written by the trainer goroutine
	ready  chan struct{}
	goCh   chan struct{}
	done   chan struct{}
	res    train.EpochStats
	err    error
}

func (l *trainLoad) setup(c *testCluster) error {
	l.c = c
	l.ready, l.goCh, l.done = make(chan struct{}), make(chan struct{}), make(chan struct{})
	seed := l.seed
	tr, err := train.New(train.Config{
		Workers:   trainWorkers,
		BatchSize: trainBatch,
		Model:     model.DeepFMConfig{Fields: workload.CriteoNumSparse, Dim: dim, Dense: workload.CriteoNumDense, Hidden: []int{64, 32}, Seed: seed},
		DataSeed:  seed*1000 + 1,
		Data: func(s int64) *workload.CriteoSynthetic {
			return workload.NewCriteo(workload.CriteoConfig{Scale: criteoScale, Seed: seed, StreamSeed: s})
		},
		CheckpointEvery: trainCkpt,
		BatchStart:      l.hook,
	}, c.ps)
	if err != nil {
		return err
	}
	go func() {
		defer close(l.done)
		l.res, l.err = tr.Run(math.MaxInt32)
	}()
	select {
	case <-l.ready:
		return nil
	case <-l.done:
		return fmt.Errorf("trainer stopped during warm-up: %w", l.err)
	}
}

func (l *trainLoad) hook(b int64) {
	l.starts = append(l.starts, time.Now())
	if b == trainWarm {
		close(l.ready)
		<-l.goCh
		l.starts[b] = time.Now()
	}
}

func (l *trainLoad) abort() {
	l.c.ps.closed.Store(true)
	close(l.goCh)
	<-l.done
}

func (l *trainLoad) window(d time.Duration, _ bool) (windowOut, error) {
	l.c.tr.setPhase(phaseWindow)
	close(l.goCh)
	time.Sleep(d)
	l.c.ps.closed.Store(true)
	<-l.done
	l.c.ps.closed.Store(false)
	var out windowOut
	if !errors.As(l.err, new(windowClosedError)) {
		out.failed++
		return out, fmt.Errorf("trainer: %w", l.err)
	}
	r := len(l.res.Steps) // the refused batch; l.starts has r+1 entries
	for b := trainWarm; b < r; b++ {
		out.lat.addDur(l.starts[b+1].Sub(l.starts[b]))
	}
	out.ops = r - trainWarm
	out.elapsed = l.starts[r].Sub(l.starts[trainWarm])
	out.opsPerSec = float64(out.ops) / out.elapsed.Seconds()
	first, last := l.res.Steps[0].Loss, l.res.FinalLoss
	out.lines = append(out.lines,
		fmt.Sprintf("train_samples_per_s %.1f samples/s", out.opsPerSec*trainWorkers*trainBatch),
		fmt.Sprintf("train_loss_final %.6f (step-1 loss %.6f, %d steps)", last, first, r))
	if math.IsNaN(last) || math.IsInf(last, 0) || !(last < first) {
		return out, fmt.Errorf("check: final loss %v is not finite and below the step-1 loss %v", last, first)
	}
	return out, nil
}

func (l *trainLoad) final() (int64, []uint64, []float32, error) {
	gen := workload.NewCriteo(workload.CriteoConfig{Scale: criteoScale, Seed: l.seed, StreamSeed: l.seed*1000 + 99})
	return int64(len(l.res.Steps)), sampleKeys(workload.UniqueKeys(gen.NextBatch(64))), nil, nil
}

// sampleKeys caps the number of keys the post-window checks read.
func sampleKeys(keys []uint64) []uint64 {
	if len(keys) > 512 {
		keys = keys[:512]
	}
	return keys
}

// ---- embed-sync ----

const (
	syncBatch = 1024
	syncWarm  = 20
	syncCkpt  = 20
)

type syncLoad struct {
	seed  int64
	c     *testCluster
	gen   *workload.CriteoSynthetic
	grads []float32
	next  int64
}

func (l *syncLoad) setup(c *testCluster) error {
	l.c = c
	l.gen = workload.NewCriteo(workload.CriteoConfig{Scale: criteoScale, Seed: l.seed, StreamSeed: l.seed*1000 + 1})
	l.grads = fixedGrads(syncBatch*workload.CriteoNumSparse*dim, l.seed)
	for l.next < syncWarm {
		if _, err := l.batch(); err != nil {
			return err
		}
	}
	return nil
}

// batch runs the next batch and returns how many unique keys it moved.
func (l *syncLoad) batch() (int, error) {
	keys := workload.UniqueKeys(l.gen.NextBatch(syncBatch))
	b := l.next
	l.next++
	return len(keys), runBatch(l.c.ps, b, keys, make([]float32, len(keys)*dim), l.grads, (b+1)%syncCkpt == 0)
}

func (l *syncLoad) abort() {}

func (l *syncLoad) window(d time.Duration, _ bool) (windowOut, error) {
	var out windowOut
	l.c.tr.setPhase(phaseWindow)
	before := l.c.stats()
	firstBatch := l.next
	st := time.Now()
	for time.Since(st) < d {
		t0 := time.Now()
		n, err := l.batch()
		if err != nil {
			out.failed++
			return out, err
		}
		out.lat.addDur(time.Since(t0))
		out.keys += int64(n)
	}
	out.elapsed = time.Since(st)
	out.ops = out.lat.n()
	out.opsPerSec = float64(out.ops) / out.elapsed.Seconds()
	after := l.c.stats()
	var lookups, misses int64
	requested := int64(0)
	for b := firstBatch; b < l.next; b++ {
		if (b+1)%syncCkpt == 0 {
			requested++
		}
	}
	for i := range after {
		lookups += after[i].Hits + after[i].Misses - before[i].Hits - before[i].Misses
		misses += after[i].Misses - before[i].Misses
		if done := after[i].CheckpointsDone - before[i].CheckpointsDone; done < requested-2 {
			return out, fmt.Errorf("check: node %d completed %d of %d checkpoints in the window", i, done, requested)
		}
	}
	out.lines = append(out.lines,
		fmt.Sprintf("sync_keys_per_s %.0f keys/s (%d keys in %d batches)", float64(out.keys)/out.elapsed.Seconds(), out.keys, out.ops),
		fmt.Sprintf("sync_miss_ratio %.4f", float64(misses)/float64(lookups)))
	if lookups != out.keys {
		return out, fmt.Errorf("check: hits+misses %d != keys pulled %d", lookups, out.keys)
	}
	return out, nil
}

func (l *syncLoad) final() (int64, []uint64, []float32, error) {
	gen := workload.NewCriteo(workload.CriteoConfig{Scale: criteoScale, Seed: l.seed, StreamSeed: l.seed*1000 + 99})
	return l.next, sampleKeys(workload.UniqueKeys(gen.NextBatch(64))), nil, nil
}

// ---- serve-flash ----

const (
	serveKeys       = 1 << 15 // key space, all trained in set-up
	serveHot        = 4096    // flash-crowd hot set
	serveHotShare   = 0.9
	serveFields     = 26
	serveSamples    = 32
	serveBagsPerReq = serveFields * serveSamples // one key per bag
	serveTrainBatch = 4096
	servePerRotate  = 500 // requests per hot-set rotation
	serveRotations  = 8   // distinct hot sets before the stream repeats
	serveBank       = 32  // distinct requests per rotation
	serveCheckEvery = 16  // every 16th response is compared row by row
	serveNominal    = 500.0
	serveWorkers    = 2
)

type serveLoad struct {
	seed     int64
	c        *testCluster
	bank     [][]uint64 // request keys, serveRotations*serveBank requests
	offsets  []uint32
	want     []float32 // row of every key in the key space, read in set-up
	next     int64
	mismatch atomic.Int64
	issued   int64
}

// makeBank draws the request stream from workload.FlashCrowd: the hot set
// rotates every servePerRotate requests of virtual time.
func (l *serveLoad) makeBank() {
	fc := workload.NewFlashCrowd(serveKeys, serveHot, serveHotShare, time.Second, uint64(l.seed))
	l.bank = make([][]uint64, serveRotations*serveBank)
	for r := 0; r < serveRotations; r++ {
		fc.Advance(time.Duration(r) * time.Second)
		for s := 0; s < serveBank; s++ {
			keys := make([]uint64, serveBagsPerReq)
			for i := range keys {
				keys[i] = fc.Sample()
			}
			l.bank[r*serveBank+s] = keys
		}
	}
	l.offsets = make([]uint32, serveBagsPerReq+1)
	for i := range l.offsets {
		l.offsets[i] = uint32(i)
	}
}

func (l *serveLoad) setup(c *testCluster) error {
	l.c = c
	grads := fixedGrads(serveTrainBatch*dim, l.seed)
	keys := make([]uint64, serveTrainBatch)
	rows := make([]float32, serveTrainBatch*dim)
	for b := 0; b < serveKeys/serveTrainBatch; b++ {
		for i := range keys {
			keys[i] = uint64(b*serveTrainBatch + i)
		}
		if err := runBatch(c.ps, l.next, keys, rows, grads, false); err != nil {
			return err
		}
		l.next++
	}
	if err := c.ps.RequestCheckpoint(l.next - 1); err != nil {
		return err
	}
	if err := gate(c.ps, l.next-1); err != nil {
		return err
	}
	all := make([]uint64, serveKeys)
	for i := range all {
		all[i] = uint64(i)
	}
	l.want = make([]float32, serveKeys*dim)
	if err := runBatch(c.ps, l.next, all, l.want, nil, false); err != nil {
		return err
	}
	l.next++
	out := make([]float32, serveBagsPerReq*dim)
	for i := 0; i < serveBank; i++ {
		if err := c.ps.PullBags(l.offsets, l.bank[i], out); err != nil {
			return err
		}
	}
	for _, n := range c.nodes {
		n.Refresh()
	}
	return nil
}

func (l *serveLoad) abort() {}

// request issues bag request i of the stream into out and checks every
// serveCheckEvery-th response against the rows read in set-up.
func (l *serveLoad) request(i int64, out []float32) error {
	keys := l.bank[(i/servePerRotate)%serveRotations*serveBank+i%serveBank]
	if err := l.c.ps.PullBags(l.offsets, keys, out); err != nil {
		return err
	}
	if i%serveCheckEvery == 0 && !rowsEqual(out, keys, l.want) {
		l.mismatch.Add(1)
	}
	return nil
}

// openRun issues rate*d requests of the stream open loop at rate.
func (l *serveLoad) openRun(rate float64, d time.Duration) loopResult {
	n := int(rate * d.Seconds())
	outs := make([][]float32, serveWorkers)
	for i := range outs {
		outs[i] = make([]float32, serveBagsPerReq*dim)
	}
	base := l.issued
	l.issued += int64(n)
	return openLoop(rate, n, serveWorkers, func(w, i int) error {
		return l.request(base+int64(i), outs[w])
	})
}

func (l *serveLoad) window(d time.Duration, nominalOnly bool) (windowOut, error) {
	var out windowOut
	l.c.tr.setPhase(phaseWindow)
	st := time.Now()
	// The open-loop part gives the latency a user sees at the nominal
	// rate; the closed-loop part offers more than the cluster can serve
	// and gives its capacity. Capacity gets the larger share: it is the
	// noisier figure, and the open-loop p50 is steady on 3/10 of the window.
	nominalD := d
	if !nominalOnly {
		nominalD = d * 3 / 10
	}
	r := l.openRun(serveNominal, nominalD)
	out.lat, out.late, out.failed = r.lat, r.late, r.failed
	out.ops = r.lat.n()
	out.opsPerSec = serveNominal
	tail, q := windowTail(r.lat)
	out.lines = append(out.lines, fmt.Sprintf("serve open loop at %.0f req/s: n=%d p50=%.1fus p%g-tail=%.1fus p99=%.1fus late_p99=%.1fus",
		serveNominal, r.lat.n(), r.lat.pct(50)/1e3, q, tail/1e3, r.lat.pct(99)/1e3, r.late.pct(99)/1e3))
	if !nominalOnly {
		lat, rate, failed := l.saturate(d - nominalD)
		n := lat.n()
		out.failed += failed
		out.ops += n
		out.opsPerSec = rate
		out.lines = append(out.lines, fmt.Sprintf("serve saturated (closed loop, %d goroutines): %.1f req/s, n=%d p50=%.1fus p99=%.1fus",
			serveWorkers, out.opsPerSec, n, lat.pct(50)/1e3, lat.pct(99)/1e3))
	}
	out.elapsed = time.Since(st)
	if m := l.mismatch.Load(); m > 0 {
		return out, fmt.Errorf("check: %d sampled bag responses differ from the rows read in set-up", m)
	}
	return out, nil
}

// saturate issues requests back to back from serveWorkers goroutines for
// d and returns their latencies, the completed-request rate and how many
// failed.
func (l *serveLoad) saturate(d time.Duration) (sample, float64, int64) {
	var next, failed atomic.Int64
	lats := make([]sample, serveWorkers)
	st := time.Now()
	deadline := st.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]float32, serveBagsPerReq*dim)
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if err := l.request(l.issued+next.Add(1)-1, out); err != nil {
					failed.Add(1)
				}
				lats[w].addDur(time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(st)
	l.issued += next.Load()
	var all sample
	for w := range lats {
		all.v = append(all.v, lats[w].v...)
	}
	return all, float64(all.n()) / elapsed.Seconds(), failed.Load()
}

func (l *serveLoad) final() (int64, []uint64, []float32, error) {
	keys := make([]uint64, 512)
	want := make([]float32, len(keys)*dim)
	for i := range keys {
		keys[i] = uint64(i * (serveKeys / len(keys)))
		copy(want[i*dim:(i+1)*dim], l.want[keys[i]*dim:(keys[i]+1)*dim])
	}
	return l.next, keys, want, nil
}

// rowsEqual reports whether each one-key bag of out equals that key's row
// in table (rows indexed by key).
func rowsEqual(out []float32, keys []uint64, table []float32) bool {
	for b, k := range keys {
		row := table[int(k)*dim : (int(k)+1)*dim]
		for j, v := range out[b*dim : (b+1)*dim] {
			if v != row[j] {
				return false
			}
		}
	}
	return true
}

// gate polls until checkpoint batch is durable on every node; each poll
// also drives checkpoint progress on the servers.
func gate(ps *gatedPS, batch int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		done, err := ps.CompletedCheckpoint()
		if err != nil {
			return err
		}
		if done >= batch {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("checkpoint %d not durable after 10s (at %d)", batch, done)
		}
	}
}
