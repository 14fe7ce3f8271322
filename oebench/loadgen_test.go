package main

import (
	"testing"
	"time"
)

// A stall in one request must be charged to the requests due behind it:
// latency is timed from each request's due time, and the generator's
// lateness shows the stall too.
func TestOpenLoopStallShowsInLaterRequests(t *testing.T) {
	const stall = 40 * time.Millisecond
	r := openLoop(1000, 100, 1, func(_, i int) error {
		if i == 20 {
			time.Sleep(stall)
		}
		return nil
	})
	if r.lat.n() != 100 || r.failed != 0 {
		t.Fatalf("got %d samples, %d failed", r.lat.n(), r.failed)
	}
	// Request 21 was due 1ms after request 20 but could only start once
	// the stall ended.
	if got := time.Duration(r.lat.v[21]); got < stall/2 {
		t.Errorf("request after the stall: latency from due %v, want >= %v", got, stall/2)
	}
	if got := time.Duration(r.late.v[21]); got < stall/2 {
		t.Errorf("request after the stall: sent %v late, want >= %v", got, stall/2)
	}
	if got := time.Duration(r.late.pct(99)); got < stall/2 {
		t.Errorf("late p99 %v does not show the %v stall", got, stall)
	}
	// The requests before the stall were not delayed by it.
	if got := time.Duration(r.lat.v[5]); got >= stall/2 {
		t.Errorf("request before the stall: latency %v, want < %v", got, stall/2)
	}
}
