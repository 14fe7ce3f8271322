// Command oebench is the repository benchmark: it starts a 2-node
// pmem-oe cluster in-process on loopback TCP, drives one workload through
// one cluster.Client, checks the outputs, and prints every metric with its
// unit and sample count. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash oebench/run.sh --workload embed-sync --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload twice, untraced then traced, and
// reports the per-layer metrics of the traced half plus the tracing
// overhead. See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"openembedding/internal/rpc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setups is how many times an untraced run sets the cluster up; setup_s
// is their median.
const setups = 5

// traceDir is where a traced run writes its spans, relative to the
// working directory (the checkout root when started by run.sh).
const traceDir = ".bench_build"

// recoverCycles is how many crash/restart cycles each node goes through
// after the window.
const recoverCycles = 8

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	defs              []metricDef
	metrics           map[string]metricValue
	lines             []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: train-deepfm | embed-sync | serve-flash")
	fs.Int64Var(&o.seed, "seed", 1, "input seed (positive)")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window, seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(o.workload)
	if !ok || o.seed <= 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "oebench: need --workload (train-deepfm|embed-sync|serve-flash), --seed > 0, --seconds > 0, --trace 0|1\n")
		return 2
	}
	fmt.Fprintln(stdout, platform())
	fmt.Fprintf(stdout, "workload %s (seed %d, %ds window, trace %d): %s\n", spec.name, o.seed, o.seconds, o.trace, spec.why)
	var res result
	var err error
	if o.trace == 1 {
		res, err = tracedRun(spec, o)
	} else {
		res, err = untracedRun(spec, o)
	}
	res.correct = err == nil && res.failed == 0
	for _, l := range res.lines {
		fmt.Fprintln(stdout, l)
	}
	if err != nil {
		fmt.Fprintf(stderr, "oebench: %s: %v\n", spec.name, err)
	}
	line, jerr := formatResult(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "oebench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct {
		return 1
	}
	return 0
}

// platform is the stamp every run prints.
func platform() string {
	s := fmt.Sprintf("platform: nproc=%d GOMAXPROCS=%d %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1 {
		s += " (1 CPU: not a result about scaling)"
	}
	return s
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// formatResult renders the final JSON line and the metric lines before
// it. A run that produced no metrics (it failed early) reports none.
func formatResult(res result) (string, error) {
	// A run that failed before its first op still reports one attempt,
	// as the result format requires; correct is false then.
	out := jsonResult{Correct: res.correct, Attempted: max(res.attempted, 1), Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range res.defs {
		v, ok := res.metrics[d.name]
		if !ok {
			continue
		}
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v.value)
		}
		out.Metrics[d.name] = jsonMetric{Value: v.value, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// metricLines prints each metric with its unit and sample count.
func metricLines(defs []metricDef, m map[string]metricValue) []string {
	var out []string
	for _, d := range defs {
		v := m[d.name]
		n := ""
		if v.n > 0 {
			n = fmt.Sprintf(" (n=%d)", v.n)
		}
		out = append(out, fmt.Sprintf("metric %-28s %14.4f %-8s%s", d.name, v.value, d.unit, n))
	}
	return out
}

// untracedRun sets up `setups` times, measures one window on the last
// cluster, runs the post-window checks, and reports end-to-end metrics.
func untracedRun(spec workloadSpec, o options) (result, error) {
	res := result{defs: endToEnd, metrics: map[string]metricValue{}}
	var setupS sample
	var c *testCluster
	var l load
	var mem *memSampler
	for k := 0; k < setups; k++ {
		ll := spec.newLoad(o.seed)
		runtime.GC()
		if k == setups-1 {
			mem = startMem()
		}
		st := time.Now()
		cc, err := startCluster(spec.node, nil)
		if err != nil {
			return res, err
		}
		if err := ll.setup(cc); err != nil {
			cc.close()
			if mem != nil {
				mem.end()
			}
			return res, fmt.Errorf("setup: %w", err)
		}
		setupS.add(time.Since(st).Seconds())
		if k < setups-1 {
			ll.abort()
			cc.close()
			continue
		}
		c, l = cc, ll
	}
	defer c.close()
	w, err := l.window(time.Duration(o.seconds)*time.Second, false)
	res.attempted += int64(w.ops) + w.failed
	res.failed += w.failed
	res.lines = append(res.lines, w.lines...)
	if err != nil {
		mem.end()
		return res, err
	}
	f, err := finish(c, l)
	res.attempted += f.attempted
	res.failed += f.failed
	peak := mem.end()
	if err != nil {
		return res, err
	}

	tail, q := windowTail(w.lat)
	res.lines = append(res.lines,
		fmt.Sprintf("op_ms_tail %.4f ms (printed, not gated)", tail/1e6),
		tailNote(q, w.lat.n()),
		fmt.Sprintf("error_rate %.6f (%d failed of %d attempted)", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted))
	res.metrics["setup_s"] = metricValue{setupS.median(), setupS.n()}
	res.metrics["mem_peak_mb"] = metricValue{peak, 0}
	res.metrics["ops_per_s"] = metricValue{w.opsPerSec, w.ops}
	res.metrics["op_ms_p50"] = metricValue{w.lat.pct(50) / 1e6, w.lat.n()}
	res.metrics["recover_ms"] = metricValue{f.recover.median() / 1e6, f.recover.n()}
	res.lines = append(res.lines, metricLines(endToEnd, res.metrics)...)
	return res, nil
}

// tracedRun measures half a window untraced (the overhead baseline and
// the process counters), then sets up traced nodes, measures the other
// half with every layer wrapped, runs the post-window checks, and
// derives the per-layer metrics.
func tracedRun(spec workloadSpec, o options) (result, error) {
	res := result{defs: perLayer, metrics: map[string]metricValue{}}
	half := time.Duration(o.seconds) * time.Second / 2

	c, err := startCluster(spec.node, nil)
	if err != nil {
		return res, err
	}
	l := spec.newLoad(o.seed)
	if err := l.setup(c); err != nil {
		c.close()
		return res, fmt.Errorf("setup: %w", err)
	}
	p0 := readProc()
	w0, err := l.window(half, true)
	p1 := readProc()
	c.close()
	res.attempted += int64(w0.ops) + w0.failed
	res.failed += w0.failed
	if err != nil {
		return res, err
	}

	tr := newTracer()
	c, err = startCluster(spec.node, tr)
	if err != nil {
		return res, err
	}
	defer c.close()
	l = spec.newLoad(o.seed)
	if err := l.setup(c); err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	before := snapNodes(c)
	w1, err := l.window(half, true)
	after := snapNodes(c)
	res.attempted += int64(w1.ops) + w1.failed
	res.failed += w1.failed
	res.lines = append(res.lines, w1.lines...)
	if err != nil {
		return res, err
	}
	f, err := finish(c, l)
	res.attempted += f.attempted
	res.failed += f.failed
	if err != nil {
		return res, err
	}
	spans := tr.all()
	final := snapNodes(c)
	tracePath := filepath.Join(traceDir, fmt.Sprintf("oebench-trace-%s-%d.json", spec.name, o.seed))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return res, err
	}
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}

	in := layerInput{
		spans: spans, ops: w1.ops, opTime: w1.lat.sum(), readOp: spec.readOp,
		before: before, after: after, final: final,
		retries:         c.clientReg.Counter("rpc_client_retries").Value(),
		late:            w1.late,
		overheadPct:     (w1.lat.median()/w0.lat.median() - 1) * 100,
		allocsPerOp:     (p1.allocs - p0.allocs) / float64(w0.ops),
		allocBytesPerOp: (p1.allocBytes - p0.allocBytes) / float64(w0.ops),
		gcShare:         div(p1.gcCPU-p0.gcCPU, p1.totalCPU-p0.totalCPU),
	}
	if in.late.n() == 0 {
		in.late = f.late
		res.lines = append(res.lines, "loadgen.late_us_p99 is from the open-loop serving check after the window (the window is closed-loop)")
	}
	for _, n := range c.nodes {
		in.lags = append(in.lags, n.(*tracedNode).ckptLags()...)
	}
	req, resp := readSizes(spans, in.readOp)
	if in.floor, err = loopbackFloor(req, resp, 2000); err != nil {
		return res, err
	}
	var fell []string
	res.metrics, fell = computeLayers(&in)
	sort.Strings(fell)
	res.lines = append(res.lines,
		fmt.Sprintf("rpc.floor_us: raw loopback round trip of a %d-byte request and %d-byte response, the %s op's mean per-node size", req, resp, opNames[in.readOp]),
		"bag reads carry no batch id: their server spans are linked to client spans by time overlap")
	if len(fell) > 0 {
		res.lines = append(res.lines, fmt.Sprintf("not reached by the window's traffic, so taken over the whole traced run (set-up, checks, restarts): %v", fell))
	}
	res.lines = append(res.lines, fmt.Sprintf("trace: %d spans written to %s; untraced p50 %.4f ms, traced p50 %.4f ms", len(spans), tracePath, w0.lat.median()/1e6, w1.lat.median()/1e6))
	res.lines = append(res.lines, metricLines(perLayer, res.metrics)...)
	return res, nil
}

// snapNodes captures every traced node's counters.
func snapNodes(c *testCluster) []nodeSnap {
	out := make([]nodeSnap, len(c.nodes))
	for i, n := range c.nodes {
		tn := n.(*tracedNode)
		out[i] = nodeSnap{stats: tn.Stats(), counters: tn.reg.Snapshot().Counters, virtual: tn.meter.Sum()}
	}
	return out
}

// readSizes returns the wire sizes (frame header included) of the
// workload's read op as one node sees it on average.
func readSizes(spans []span, op uint8) (req, resp int) {
	var keys, calls int64
	for i := range spans {
		s := &spans[i]
		if s.layer == layerCluster && s.op == op && s.phase == phaseWindow {
			keys += int64(s.keys)
			calls++
		}
	}
	k := int(keys / max(calls, 1) / numNodes)
	var b *rpc.Buffer
	rows := k
	if op == opPullBags {
		b = rpc.NewBuffer(rpc.MsgPullBag, 0)
		b.PutU8(0)
		b.PutU32s(make([]uint32, serveBagsPerReq+1))
		rows = serveBagsPerReq
	} else {
		b = rpc.NewBuffer(rpc.MsgPull, 0)
	}
	b.PutKeys(make([]uint64, k))
	r := rpc.NewBuffer(rpc.MsgData, 0)
	r.PutFloats(make([]float32, rows*dim))
	return frameHdr + len(b.Bytes()), frameHdr + len(r.Bytes()) - 8
}

// tailNote states how op_ms_tail was taken and its sample count.
func tailNote(q float64, n int) string {
	segs := max(n/tailSegment, 1)
	seg := n / segs
	return fmt.Sprintf("op_ms_tail: median over %d segments of %d ops of each segment's p%g (%d beyond it per segment); %d ops",
		segs, seg, q, beyond(seg, q), n)
}

// finishOut is what the post-window checks measured.
type finishOut struct {
	recover           sample // crash-to-serving wall time, ns
	late              sample // lateness of the open-loop serving check, ns
	attempted, failed int64
}

// checkBags is the bag count of one serving-check request.
const checkBags = 64

// finish runs the checks every workload ends with: one more batch reads
// the sample rows through Pull and is checkpointed; the serving path must
// return the same rows; then each node is crashed and restarted
// recoverCycles times, must recover to that checkpoint, and must serve
// bit-identical rows afterwards.
func finish(c *testCluster, l load) (finishOut, error) {
	var f finishOut
	c.tr.setPhase(phaseCheck)
	next, keys, want, err := l.final()
	if err != nil {
		return f, err
	}
	rows := make([]float32, len(keys)*dim)
	f.attempted += 4
	if err := runBatch(c.ps, next, keys, rows, nil, true); err != nil {
		f.failed++
		return f, err
	}
	if err := gate(c.ps, next); err != nil {
		f.failed++
		return f, err
	}
	if want != nil && !floatsEqual(rows, want) {
		return f, errors.New("check: rows read through Pull after the window differ from the rows of set-up")
	}

	chunks := len(keys) / checkBags
	offs := identityOffsets(checkBags)
	outs := [][]float32{make([]float32, checkBags*dim), make([]float32, checkBags*dim)}
	var mismatch atomic.Int64
	const checkRequests = 64
	r := openLoop(1000, checkRequests, 2, func(w, i int) error {
		ch := i % chunks
		if err := c.ps.PullBags(offs, keys[ch*checkBags:(ch+1)*checkBags], outs[w]); err != nil {
			return err
		}
		if !floatsEqual(outs[w], rows[ch*checkBags*dim:(ch+1)*checkBags*dim]) {
			mismatch.Add(1)
		}
		return nil
	})
	f.late = r.late
	f.attempted += checkRequests
	f.failed += r.failed
	if m := mismatch.Load(); m > 0 {
		return f, fmt.Errorf("check: %d serving reads differ from the rows read through Pull", m)
	}

	c.tr.setPhase(phaseRecover)
	allOffs := identityOffsets(len(keys))
	out := make([]float32, len(keys)*dim)
	for cyc := 0; cyc < recoverCycles; cyc++ {
		for i := range c.nodes {
			f.attempted++
			d, ckpt, err := c.crashRestart(i)
			if err != nil {
				f.failed++
				return f, fmt.Errorf("node %d restart: %w", i, err)
			}
			if ckpt != next {
				return f, fmt.Errorf("check: node %d recovered to checkpoint %d, want %d", i, ckpt, next)
			}
			f.recover.addDur(d)
			if err := c.dial(); err != nil {
				f.failed++
				return f, err
			}
			f.attempted++
			if err := c.ps.PullBags(allOffs, keys, out); err != nil {
				f.failed++
				return f, err
			}
			if !floatsEqual(out, rows) {
				return f, fmt.Errorf("check: rows after restart %d of node %d differ from the checkpointed rows", cyc, i)
			}
		}
	}
	return f, nil
}

func identityOffsets(n int) []uint32 {
	o := make([]uint32, n+1)
	for i := range o {
		o[i] = uint32(i)
	}
	return o
}

func floatsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
