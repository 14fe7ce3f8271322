package main

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the median
}

// endToEnd are the metrics of untraced runs, on every workload. "op" is
// the workload's unit of work: a training step (train-deepfm), a
// batch-protocol round (embed-sync) or a bag request (serve-flash).
//
// The bounds are wide because CPU speed drifts on a shared VM: on a
// 2-CPU one, a fixed single-threaded loop took 27 to 44 ms within one
// minute, and ten runs of one workload spread by up to a fifth on every
// timed metric. The op-latency tail is printed but not among these: on
// that VM the serve-flash tail spread by up to 0.31 over ten runs, beyond
// 0.25, the widest bound BENCHMARK.json allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mem_peak_mb", "MB", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"recover_ms", "ms", "lower", 0.25},
}

// perLayer are the metrics of traced runs, grouped by the layer whose
// public interface the benchmark wraps.
var perLayer = []metricDef{
	{"train.pull_ms", "ms", "lower", 0},
	{"train.push_ms", "ms", "lower", 0},
	{"train.sync_ms", "ms", "lower", 0},
	{"train.compute_ms", "ms", "lower", 0},
	{"train.ps_share", "ratio", "lower", 0},
	{"cluster.pull_us_p50", "us", "lower", 0},
	{"cluster.pull_us_p99", "us", "lower", 0},
	{"cluster.push_us_p50", "us", "lower", 0},
	{"cluster.push_us_p99", "us", "lower", 0},
	{"cluster.end_batch_us_p50", "us", "lower", 0},
	{"cluster.end_batch_us_p99", "us", "lower", 0},
	{"cluster.pull_bags_us_p50", "us", "lower", 0},
	{"cluster.pull_bags_us_p99", "us", "lower", 0},
	{"cluster.straggler_us", "us", "lower", 0},
	{"rpc.self_us_pull", "us", "lower", 0},
	{"rpc.self_us_push", "us", "lower", 0},
	{"rpc.self_us_end_batch", "us", "lower", 0},
	{"rpc.self_us_pull_bags", "us", "lower", 0},
	{"rpc.bytes_per_op", "bytes", "lower", 0},
	{"rpc.retries", "count", "lower", 0},
	{"rpc.floor_us", "us", "lower", 0},
	{"rpc.floor_ratio", "ratio", "lower", 0},
	{"serve.pull_bags_us_p50", "us", "lower", 0},
	{"serve.pull_bags_us_p99", "us", "lower", 0},
	{"serve.snap_hit_ratio", "ratio", "higher", 0},
	{"serve.fallback_ratio", "ratio", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"engine.pull_us_p50", "us", "lower", 0},
	{"engine.pull_us_p99", "us", "lower", 0},
	{"engine.push_us_p50", "us", "lower", 0},
	{"engine.push_us_p99", "us", "lower", 0},
	{"engine.end_pull_us", "us", "lower", 0},
	{"engine.end_batch_us_p50", "us", "lower", 0},
	{"engine.end_batch_us_p99", "us", "lower", 0},
	{"engine.miss_ratio", "ratio", "lower", 0},
	{"engine.evictions_per_op", "count/op", "lower", 0},
	{"engine.ckpt_lag_batches", "batches", "lower", 0},
	{"engine.recover_ms", "ms", "lower", 0},
	{"pmem.reads_per_op", "count/op", "lower", 0},
	{"pmem.writes_per_op", "count/op", "lower", 0},
	{"device.virtual_ns_per_op", "ns/op", "lower", 0},
	{"proc.allocs_per_op", "count/op", "lower", 0},
	{"proc.alloc_bytes_per_op", "bytes/op", "lower", 0},
	{"proc.gc_cpu_share", "ratio", "lower", 0},
	{"loadgen.late_us_p99", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
}

// metricValue is one reported figure with its sample count (0 where the
// figure is a ratio or total rather than a statistic over samples).
type metricValue struct {
	value float64
	n     int
}
