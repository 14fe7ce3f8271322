package main

import (
	"sort"
	"time"

	"openembedding/internal/psengine"
)

// nodeSnap is one node's counters at a point of the traced run.
type nodeSnap struct {
	stats    psengine.Stats
	counters map[string]int64
	virtual  time.Duration
}

// layerInput is everything the traced run gathered.
type layerInput struct {
	spans       []span
	ops         int        // ops completed in the window
	opTime      float64    // summed op latency in the window, ns
	readOp      uint8      // the workload's read: opPull or opPullBags
	before      []nodeSnap // window start
	after       []nodeSnap // window end
	final       []nodeSnap // end of the run, for obs counters the window did not move
	lags        []float64
	retries     int64
	floor       sample
	late        sample
	overheadPct float64
	// From the untraced half: allocations per op and the GC's CPU share.
	allocsPerOp, allocBytesPerOp, gcShare float64
}

// childLayer maps a client-side op to the server layer that serves it.
func childLayer(op uint8) uint8 {
	if op == opPullBags {
		return layerServe
	}
	return layerEngine
}

type layerCalc struct {
	in       *layerInput
	out      map[string]metricValue
	fellBack []string
}

// spanDurs returns the durations (ns) of the spans that match, taken from
// the measurement window, or from every phase of the run when the window
// has none (a layer the window's traffic does not reach).
func (lc *layerCalc) spanDurs(name string, match func(s *span) bool) sample {
	var win, all sample
	for i := range lc.in.spans {
		s := &lc.in.spans[i]
		if !match(s) {
			continue
		}
		d := float64(s.end - s.start)
		all.add(d)
		if s.phase == phaseWindow {
			win.add(d)
		}
	}
	if win.n() > 0 {
		return win
	}
	if all.n() > 0 {
		lc.fellBack = append(lc.fellBack, name)
	}
	return all
}

func (lc *layerCalc) set(name string, v float64, n int) { lc.out[name] = metricValue{v, n} }

func isSpan(layer, op uint8) func(s *span) bool {
	return func(s *span) bool { return s.layer == layer && s.op == op }
}

// union returns the total length of the union of intervals.
func union(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// children indexes server spans by (op, batch), each list sorted by start.
type childIndex map[[2]int64][]*span

func indexChildren(spans []span) childIndex {
	idx := childIndex{}
	for i := range spans {
		s := &spans[i]
		if s.node < 0 {
			continue
		}
		k := [2]int64{int64(s.op), s.batch}
		idx[k] = append(idx[k], s)
	}
	for _, l := range idx {
		sort.Slice(l, func(i, j int) bool { return l[i].start < l[j].start })
	}
	return idx
}

// of returns the server spans a client span caused: same op and batch,
// and inside the client span's interval. Bag reads carry no batch id, so
// for them the link is the time overlap alone; with concurrent requests a
// server span inside two client spans counts for both.
func (idx childIndex) of(c *span) []*span {
	l := idx[[2]int64{int64(c.op), c.batch}]
	i := sort.Search(len(l), func(i int) bool { return l[i].start >= c.start })
	var out []*span
	for ; i < len(l) && l[i].start <= c.end; i++ {
		if l[i].end <= c.end && l[i].layer == childLayer(c.op) {
			out = append(out, l[i])
		}
	}
	return out
}

// computeLayers derives every per-layer metric.
func computeLayers(in *layerInput) (map[string]metricValue, []string) {
	lc := &layerCalc{in: in, out: map[string]metricValue{}}
	us := func(ns float64) float64 { return ns / 1e3 }

	// cluster: timed cluster.Client calls.
	for _, o := range []struct {
		name string
		op   uint8
	}{{"pull", opPull}, {"push", opPush}, {"end_batch", opEndBatch}, {"pull_bags", opPullBags}} {
		d := lc.spanDurs("cluster."+o.name, isSpan(layerCluster, o.op))
		lc.set("cluster."+o.name+"_us_p50", us(d.pct(50)), d.n())
		lc.set("cluster."+o.name+"_us_p99", us(d.pct(99)), d.n())
	}

	// rpc self time and fan-out stragglers, from client spans and the
	// server spans they caused.
	idx := indexChildren(in.spans)
	selfOf := func(name string, op uint8) (self, strag sample) {
		var winSelf, allSelf, winStrag, allStrag sample
		for i := range in.spans {
			c := &in.spans[i]
			if c.layer != layerCluster || c.op != op {
				continue
			}
			kids := idx.of(c)
			iv := make([][2]int64, len(kids))
			ends := map[int8]int64{}
			for j, k := range kids {
				iv[j] = [2]int64{k.start, k.end}
				if k.end > ends[k.node] {
					ends[k.node] = k.end
				}
			}
			s := float64(c.end - c.start - union(iv))
			allSelf.add(s)
			if c.phase == phaseWindow {
				winSelf.add(s)
			}
			if len(ends) == numNodes {
				lo, hi := int64(1<<62), int64(0)
				for _, e := range ends {
					lo, hi = min(lo, e), max(hi, e)
				}
				allStrag.add(float64(hi - lo))
				if c.phase == phaseWindow {
					winStrag.add(float64(hi - lo))
				}
			}
		}
		if winSelf.n() > 0 {
			return winSelf, winStrag
		}
		if allSelf.n() > 0 {
			lc.fellBack = append(lc.fellBack, name)
		}
		return allSelf, allStrag
	}
	var strag sample
	for _, o := range []struct {
		name string
		op   uint8
	}{{"pull", opPull}, {"push", opPush}, {"end_batch", opEndBatch}, {"pull_bags", opPullBags}} {
		self, st := selfOf("rpc.self_us_"+o.name, o.op)
		lc.set("rpc.self_us_"+o.name, us(self.median()), self.n())
		if o.op == in.readOp {
			strag = st
			lc.set("rpc.floor_ratio", self.median()/in.floor.median(), self.n())
		}
	}
	lc.set("cluster.straggler_us", us(strag.median()), strag.n())
	lc.set("rpc.floor_us", us(in.floor.median()), in.floor.n())
	lc.set("rpc.retries", float64(in.retries), 0)
	bytes := lc.delta(func(n nodeSnap) int64 {
		return n.counters["rpc_server_bytes_in"] + n.counters["rpc_server_bytes_out"]
	})
	reqs := lc.delta(func(n nodeSnap) int64 { return n.counters["rpc_server_requests"] })
	lc.set("rpc.bytes_per_op", ratio(bytes, reqs), int(reqs))

	// train: the ParamServer calls the workload's loop makes, per batch.
	lc.trainLayer()

	// serve: the rpc.BagServer wrapper and the serving counters.
	d := lc.spanDurs("serve.pull_bags", isSpan(layerServe, opPullBags))
	lc.set("serve.pull_bags_us_p50", us(d.pct(50)), d.n())
	lc.set("serve.pull_bags_us_p99", us(d.pct(99)), d.n())
	keysWin := lc.delta(func(n nodeSnap) int64 { return n.counters["serve_keys"] }) > 0
	pick := func(f func(n nodeSnap) int64) float64 {
		if keysWin {
			return float64(lc.delta(f))
		}
		return float64(total(in.final, f))
	}
	keys := pick(func(n nodeSnap) int64 { return n.counters["serve_keys"] })
	if !keysWin {
		lc.fellBack = append(lc.fellBack, "serve counters")
	}
	lc.set("serve.snap_hit_ratio", div(pick(func(n nodeSnap) int64 { return n.counters["serve_snap_hits"] }), keys), int(keys))
	lc.set("serve.fallback_ratio", div(pick(func(n nodeSnap) int64 {
		return n.counters["serve_dram_fallback"] + n.counters["serve_pmem_fallback"]
	}), keys), int(keys))
	lc.set("serve.shed", float64(total(in.final, func(n nodeSnap) int64 { return n.counters["serve_shed"] })), 0)

	// engine: the psengine.Engine wrapper and Stats.
	for _, o := range []struct {
		name string
		op   uint8
	}{{"pull", opPull}, {"push", opPush}, {"end_batch", opEndBatch}} {
		d := lc.spanDurs("engine."+o.name, isSpan(layerEngine, o.op))
		lc.set("engine."+o.name+"_us_p50", us(d.pct(50)), d.n())
		lc.set("engine."+o.name+"_us_p99", us(d.pct(99)), d.n())
	}
	d = lc.spanDurs("engine.end_pull", isSpan(layerEngine, opEndPull))
	lc.set("engine.end_pull_us", us(d.median()), d.n())
	lookWin := lc.delta(func(n nodeSnap) int64 { return n.stats.Hits + n.stats.Misses }) > 0
	stat := func(f func(n nodeSnap) int64) float64 {
		if lookWin {
			return float64(lc.delta(f))
		}
		return float64(total(in.after, f))
	}
	lookups := stat(func(n nodeSnap) int64 { return n.stats.Hits + n.stats.Misses })
	if !lookWin {
		lc.fellBack = append(lc.fellBack, "engine.miss_ratio")
	}
	lc.set("engine.miss_ratio", div(stat(func(n nodeSnap) int64 { return n.stats.Misses }), lookups), int(lookups))
	ops := float64(in.ops)
	lc.set("engine.evictions_per_op", float64(lc.delta(func(n nodeSnap) int64 { return n.stats.Evictions }))/ops, in.ops)
	lags := sample{in.lags}
	lc.set("engine.ckpt_lag_batches", lags.mean(), lags.n())
	rec := lc.spanDurs("engine.recover", isSpan(layerEngine, opRecover))
	lc.set("engine.recover_ms", rec.median()/1e6, rec.n())

	// pmem and the simulated device.
	lc.set("pmem.reads_per_op", float64(lc.delta(func(n nodeSnap) int64 { return n.stats.PMemReads }))/ops, in.ops)
	lc.set("pmem.writes_per_op", float64(lc.delta(func(n nodeSnap) int64 { return n.stats.PMemWrites }))/ops, in.ops)
	lc.set("device.virtual_ns_per_op", float64(lc.delta(func(n nodeSnap) int64 { return int64(n.virtual) }))/ops, in.ops)

	// process and harness.
	lc.set("proc.allocs_per_op", in.allocsPerOp, 0)
	lc.set("proc.alloc_bytes_per_op", in.allocBytesPerOp, 0)
	lc.set("proc.gc_cpu_share", in.gcShare, 0)
	lc.set("loadgen.late_us_p99", us(in.late.pct(99)), in.late.n())
	lc.set("trace.overhead_pct", in.overheadPct, 0)
	return lc.out, lc.fellBack
}

// batchSpans are one batch's ParamServer calls.
type batchSpans struct {
	pull, push, all [][2]int64
	sync            float64
	pullEnd         int64 // end of EndPullPhase
	pushStart       int64 // start of the first Push
}

// compute is the gap between EndPullPhase and the first Push: the
// workload's dense compute (none for a batch without a push).
func (b *batchSpans) compute() float64 {
	if b.pullEnd > 0 && b.pushStart > b.pullEnd {
		return float64(b.pushStart - b.pullEnd)
	}
	return 0
}

// trainLayer splits each window batch into its ParamServer calls and the
// workload's compute between EndPullPhase and the first Push, and sets
// the share of op time no layer accounts for.
func (lc *layerCalc) trainLayer() {
	collect := func(window bool) map[int64]*batchSpans {
		m := map[int64]*batchSpans{}
		for i := range lc.in.spans {
			s := &lc.in.spans[i]
			if s.layer != layerCluster || s.batch < 0 || (window && s.phase != phaseWindow) {
				continue
			}
			b := m[s.batch]
			if b == nil {
				b = &batchSpans{}
				m[s.batch] = b
			}
			iv := [2]int64{s.start, s.end}
			b.all = append(b.all, iv)
			switch s.op {
			case opPull:
				b.pull = append(b.pull, iv)
			case opPush:
				b.push = append(b.push, iv)
				if b.pushStart == 0 || s.start < b.pushStart {
					b.pushStart = s.start
				}
			case opEndPull:
				b.pullEnd = s.end
				b.sync += float64(s.end - s.start)
			default:
				b.sync += float64(s.end - s.start)
			}
		}
		return m
	}
	win := collect(true)
	batches := win
	if len(batches) == 0 {
		batches = collect(false)
		lc.fellBack = append(lc.fellBack, "train")
	}
	var pull, push, sync, compute float64
	for _, b := range batches {
		pull += float64(union(b.pull))
		push += float64(union(b.push))
		sync += b.sync
		compute += b.compute()
	}
	n := float64(len(batches))
	lc.set("train.pull_ms", pull/n/1e6, len(batches))
	lc.set("train.push_ms", push/n/1e6, len(batches))
	lc.set("train.sync_ms", sync/n/1e6, len(batches))
	lc.set("train.compute_ms", compute/n/1e6, len(batches))

	// Share of the window's op time spent inside ParamServer calls: batch
	// calls as unions per batch, bag reads span by span.
	var winPS, winCompute float64
	for _, b := range win {
		winPS += float64(union(b.all))
		winCompute += b.compute()
	}
	for i := range lc.in.spans {
		s := &lc.in.spans[i]
		if s.layer == layerCluster && s.op == opPullBags && s.phase == phaseWindow {
			winPS += float64(s.end - s.start)
		}
	}
	lc.set("train.ps_share", winPS/lc.in.opTime, lc.in.ops)
	lc.set("trace.unattributed_share", 1-(winPS+winCompute)/lc.in.opTime, lc.in.ops)
}

// delta sums f over nodes at the window's end minus its start.
func (lc *layerCalc) delta(f func(n nodeSnap) int64) int64 {
	var t int64
	for i := range lc.in.after {
		t += f(lc.in.after[i]) - f(lc.in.before[i])
	}
	return t
}

// total sums f over nodes in snaps: at the window's end (after) for
// engine Stats, which a restart resets, or at the run's end (final) for
// obs counters, which live as long as the node.
func total(snaps []nodeSnap, f func(n nodeSnap) int64) int64 {
	var t int64
	for i := range snaps {
		t += f(snaps[i])
	}
	return t
}

func ratio(a, b int64) float64 { return div(float64(a), float64(b)) }

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
