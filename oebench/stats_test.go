package main

import (
	"strings"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 50, 100, 258, 338, 999, 1000, 1001, 4000, 20000} {
		q := tailPercentile(n)
		if b := beyond(n, q); b < tailBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it, want >= %d", n, q, b, tailBeyond)
		}
		// No higher candidate may also qualify: the rule picks the highest.
		for _, h := range tailCandidates {
			if h > q && beyond(n, h) >= tailBeyond {
				t.Errorf("n=%d: chose p%g but p%g also leaves %d beyond", n, q, h, beyond(n, h))
			}
		}
	}
	if q := tailPercentile(1000); q != 99 {
		t.Errorf("n=1000: got p%g, want p99", q)
	}
	if q := tailPercentile(20000); q != 99.9 {
		t.Errorf("n=20000: got p%g, want p99.9", q)
	}
}

func TestTailNoteStatesSampleCount(t *testing.T) {
	got := tailNote(95, 1000)
	for _, want := range []string{"5 segments", "200 ops", "p95", "10 beyond", "1000 ops"} {
		if !strings.Contains(got, want) {
			t.Errorf("tailNote(95, 1000) = %q, missing %q", got, want)
		}
	}
}

func TestWindowTailIsMedianOfSegmentTails(t *testing.T) {
	// Short windows are one segment with the plain rule.
	var short sample
	for i := 1; i <= 150; i++ {
		short.add(float64(i))
	}
	if got, q := windowTail(short); q != 90 || got != 135 {
		t.Errorf("150 ops: tail %v at p%g, want 135 at p90", got, q)
	}
	// One stall in one segment moves a plain tail but not the median of
	// segment tails.
	var s sample
	for i := 0; i < 1000; i++ {
		v := 1.0
		if i >= 10 && i < 40 {
			v = 100 // a 30-op stall inside the first segment
		}
		s.add(v)
	}
	if got, q := windowTail(s); got != 1 || q != 95 {
		t.Errorf("tail with one stalled segment = %v at p%g, want 1 at p95", got, q)
	}
	if got := s.pct(99); got != 100 {
		t.Errorf("plain p99 = %v, want the stall's 100", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := sample{}
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if got := s.pct(99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := s.pct(50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
