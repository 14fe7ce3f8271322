package core

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"openembedding/internal/obs"
)

// TestBenchReportPR6 runs the batched hot-path benchmark set (parallel pull
// and push at shards 1 and 8, plus the single-threaded pull series BENCH_pr3
// recorded) through testing.Benchmark and writes the machine-readable
// BENCH_pr6.json artifact.
//
// It is gated on OE_BENCH_REPORT_PR6 (the output path) so plain
// `go test ./...` stays fast. Two gates ride along:
//
//   - The zero-alloc gate is unconditional once the test runs: the run-sorted
//     pull and push hot paths must not allocate at either shard count.
//   - The regression gate is armed by OE_BENCH_BASELINE (a prior BENCH
//     artifact, normally BENCH_pr3.json) plus OE_BENCH_MAX_REGRESSION_PCT:
//     every series present in both reports must not be slower than baseline
//     by more than the threshold. Thresholds are loose in CI because shared
//     runners are noisy; the per-series deltas are logged either way.
func TestBenchReportPR6(t *testing.T) {
	path := os.Getenv("OE_BENCH_REPORT_PR6")
	if path == "" {
		t.Skip("OE_BENCH_REPORT_PR6 not set")
	}

	// Best-of-N: the minimum is the run with the least scheduler
	// interference (same policy as the pr3 harness).
	const rounds = 3
	best := func(f func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(f)
		for i := 1; i < rounds; i++ {
			if next := testing.Benchmark(f); next.NsPerOp() < r.NsPerOp() {
				r = next
			}
		}
		return r
	}
	add := func(rep *obs.BenchReport, name string, r testing.BenchmarkResult) {
		rep.Add(obs.BenchResult{
			Name:        name,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp()),
			BytesPerOp:  float64(r.AllocedBytesPerOp()),
			N:           r.N,
		})
	}

	rep := obs.NewBenchReport("pr6")
	series := []struct {
		name     string
		f        func(b *testing.B)
		allocPin bool
	}{
		{"EnginePullParallel/shards=1", func(b *testing.B) { benchPullParallel(b, 1) }, true},
		{"EnginePullParallel/shards=8", func(b *testing.B) { benchPullParallel(b, 8) }, true},
		{"EnginePushParallel/shards=1", func(b *testing.B) { benchPushParallel(b, 1) }, true},
		{"EnginePushParallel/shards=8", func(b *testing.B) { benchPushParallel(b, 8) }, true},
		// The series BENCH_pr3 recorded, re-measured for the regression gate.
		{"EnginePull/obs=off", func(b *testing.B) { benchPullSingle(b, nil) }, true},
	}
	for _, s := range series {
		r := best(s.f)
		if r.NsPerOp() <= 0 {
			t.Fatalf("%s: degenerate result %v", s.name, r)
		}
		t.Logf("%-28s %8d ns/op  %3d allocs/op  %5d B/op", s.name, r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp())
		if s.allocPin && r.AllocsPerOp() != 0 {
			t.Errorf("%s allocates %d/op; the batched hot path must be 0-alloc", s.name, r.AllocsPerOp())
		}
		add(rep, s.name, r)
	}
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	t.Logf("wrote %s", path)

	basePath := os.Getenv("OE_BENCH_BASELINE")
	if basePath == "" {
		return
	}
	maxPct := 25.0
	if s := os.Getenv("OE_BENCH_MAX_REGRESSION_PCT"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad OE_BENCH_MAX_REGRESSION_PCT %q: %v", s, err)
		}
		maxPct = v
	}
	baseline, err := obs.ReadBenchReport(basePath)
	if err != nil {
		t.Fatalf("read baseline %s: %v", basePath, err)
	}
	if err := gateRegressions(rep, baseline, maxPct, t.Logf); err != nil {
		t.Error(err)
	}
}

// gateRegressions compares every series present in both reports and fails
// when the new ns/op exceeds the baseline by more than maxPct percent.
func gateRegressions(cur, base *obs.BenchReport, maxPct float64, logf func(string, ...any)) error {
	baseByName := make(map[string]obs.BenchResult, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	compared := 0
	for _, r := range cur.Results {
		b, ok := baseByName[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		compared++
		deltaPct := 100 * (r.NsPerOp - b.NsPerOp) / b.NsPerOp
		logf("%-28s baseline(%s) %.0f ns/op -> %.0f ns/op (%+.1f%%)", r.Name, base.PR, b.NsPerOp, r.NsPerOp, deltaPct)
		if deltaPct > maxPct {
			return fmt.Errorf("%s regressed %.1f%% vs %s (gate %.1f%%)", r.Name, deltaPct, base.PR, maxPct)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no comparable series between %s and baseline %s", cur.PR, base.PR)
	}
	return nil
}
