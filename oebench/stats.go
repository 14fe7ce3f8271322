package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles the tail rule chooses from, highest
// first. A fixed menu keeps the reported tail comparable across runs.
var tailCandidates = []float64{99.9, 99.5, 99, 98, 97, 96, 95, 90, 80, 75, 50}

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tailPercentile returns the highest candidate percentile that leaves at
// least tailBeyond samples beyond it when n samples are taken, or 50 when
// n is too small for any higher one.
func tailPercentile(n int) float64 {
	for _, q := range tailCandidates {
		if beyond(n, q) >= tailBeyond {
			return q
		}
	}
	return 50
}

// beyond counts the samples of n ranked strictly above the nearest-rank
// q-th percentile.
func beyond(n int, q float64) int {
	return n - rank(n, q) - 1
}

// rank is the 0-based nearest-rank index of the q-th percentile of n
// sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// percentile returns the nearest-rank q-th percentile of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// median returns the median of vals (the mean of the middle pair for an
// even count) without modifying vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sample is a growing set of observations of one quantity.
type sample struct{ v []float64 }

func (s *sample) add(v float64)          { s.v = append(s.v, v) }
func (s *sample) addDur(d time.Duration) { s.v = append(s.v, float64(d)) }
func (s *sample) n() int                 { return len(s.v) }
func (s *sample) sorted() []float64      { c := append([]float64(nil), s.v...); sort.Float64s(c); return c }
func (s *sample) pct(q float64) float64  { return percentile(s.sorted(), q) }
func (s *sample) median() float64        { return median(s.v) }
func (s *sample) sum() float64 {
	t := 0.0
	for _, v := range s.v {
		t += v
	}
	return t
}
func (s *sample) mean() float64 {
	if len(s.v) == 0 {
		return 0
	}
	return s.sum() / float64(len(s.v))
}

// tailSegment is the op count of one segment of a window. The tail is
// taken per segment and the segments' tails are summarised by their
// median, so a stall that hits one segment does not decide the figure.
// 200 ops leave 10 samples beyond p95.
const tailSegment = 200

// windowTail returns the tail of a window of op latencies and the
// percentile it used: the median over consecutive tailSegment-op
// segments of each segment's highest percentile with tailBeyond samples
// beyond it. A window shorter than two segments is one segment.
func windowTail(s sample) (float64, float64) {
	segs := max(s.n()/tailSegment, 1)
	q := tailPercentile(s.n() / segs)
	return segTail(s, segs, q), q
}

// segTail splits s into segs equal consecutive segments and returns the
// median over segments of each segment's q-th percentile.
func segTail(s sample, segs int, q float64) float64 {
	var per []float64
	n := len(s.v) / segs
	for i := 0; i < segs; i++ {
		seg := sample{s.v[i*n : (i+1)*n]}
		per = append(per, seg.pct(q))
	}
	return median(per)
}
