package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// procCounters are cumulative process counters read from runtime/metrics.
type procCounters struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64
}

var procNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procCounters {
	s := make([]metrics.Sample, len(procNames))
	for i, n := range procNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return procCounters{allocs: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

// memSampler tracks the peak heap size: the highest of the heap objects
// in use and the collector's heap goal, sampled every memEvery. The goal
// is where the collector lets the heap grow before it collects, so it
// catches a peak that falls between two samples.
type memSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const memEvery = 5 * time.Millisecond

func startMem() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/goal:bytes"}}
		t := time.NewTicker(memEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			m.peak = max(m.peak, s[0].Value.Uint64(), s[1].Value.Uint64())
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// end stops sampling and returns the peak in MB.
func (m *memSampler) end() float64 {
	close(m.stop)
	m.wg.Wait()
	return float64(m.peak) / (1 << 20)
}
