package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is one open-loop run at a fixed rate.
type loopResult struct {
	lat    sample // ns from each request's due time to its completion
	late   sample // ns by which the generator sent each request after it was due
	failed int64
}

// openLoop issues n requests due every 1/rate seconds from a common
// start, using workers goroutines that each take the next due request.
// Latency is timed from when a request was due, not from when it was
// sent, so a stall delays the accounting of every request behind it.
func openLoop(rate float64, n, workers int, do func(worker, i int) error) loopResult {
	interval := time.Duration(float64(time.Second) / rate)
	lat := make([]float64, n)
	late := make([]float64, n)
	var next, failed atomic.Int64
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late[i] = float64(time.Since(due))
				if err := do(w, i); err != nil {
					failed.Add(1)
				}
				lat[i] = float64(time.Since(due))
			}
		}(w)
	}
	wg.Wait()
	return loopResult{lat: sample{lat}, late: sample{late}, failed: failed.Load()}
}
