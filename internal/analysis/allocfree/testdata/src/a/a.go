// Test corpus for the allocfree analyzer: a miniature of the engine's
// pooled hot path (pull/push over preallocated scratch) plus constructs
// that reach the heap.
package a

import (
	"errors"
	"fmt"
)

type entry struct {
	key int64
	vec []float32
}

type shard struct {
	scratch []entry
	index   map[int64]int
	name    string
	err     error
}

// oevet:hotpath
func (s *shard) pull(keys []int64, out []float32) error {
	for i, k := range keys { // ok: range over a slice
		idx := s.index[k] // ok: map lookup does not allocate
		copy(out[i*4:], s.scratch[idx].vec)
	}
	return nil
}

// oevet:hotpath
func (s *shard) push(keys []int64) error {
	e := &entry{key: keys[0]} // want `&composite literal escapes to the heap`
	_ = e
	buf := make([]float32, 4) // want `make allocates`
	_ = buf
	s.scratch = append(s.scratch, entry{}) // want `append may grow the backing array`
	return nil
}

// reached from the hot root below, so its allocation is reported too.
func (s *shard) fanOut(k int64) {
	go func() { // want `go statement allocates a closure per spawn`
		_ = k
	}()
}

// frame is a pooled per-request fan-out frame: spawning its method value
// with an argument still compiles to a heap closure per spawn.
type frame struct{ s *shard }

func (f *frame) run(sid int32) { _ = f.s }

func (s *shard) fanOutFrame(f *frame, sid int32) {
	go f.run(sid) // want `go statement allocates a closure per spawn`
}

// oevet:hotpath
func (s *shard) dispatch(k int64, f *frame) {
	s.fanOut(k)
	s.fanOutFrame(f, int32(k))
	go s.plain()   // want `go statement allocates a closure per spawn`
	defer func() { // ok: direct defer of a literal is open-coded on the stack
		_ = k
	}()
}

func (s *shard) plain() {}

// oevet:hotpath
func (s *shard) format(k int64) string {
	return fmt.Sprintf("key %d", k) // want `fmt.Sprintf allocates`
}

// oevet:hotpath
func (s *shard) concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

// oevet:hotpath
func (s *shard) mapWalk() int {
	n := 0
	for k := range s.index { // want `range over a map on the hot path`
		n += int(k)
	}
	return n
}

// oevet:hotpath
func (s *shard) convert(b []byte) string {
	return string(b) // want `to string conversion allocates`
}

// oevet:hotpath
func (s *shard) box(k int64) any {
	return any(k) // want `interface conversion boxes a non-pointer value`
}

// oevet:hotpath
func (s *shard) errorPathMayAllocate(k int64) error {
	if s.err != nil {
		return fmt.Errorf("pull %d: %w", k, s.err) // ok: failure path formats its error
	}
	return nil
}

// oevet:hotpath
func (s *shard) justified() {
	//oevet:alloc-ok pooled scratch; growth is amortized by reuse across batches
	s.scratch = append(s.scratch, entry{})
}

// oevet:coldpath first-touch slot creation; misses are off the steady-state path
func (s *shard) createMissing(k int64) *entry {
	e := &entry{key: k, vec: make([]float32, 4)} // ok: the hot walk stops at coldpath
	return e
}

// oevet:hotpath
func (s *shard) pullWithMiss(k int64) *entry {
	if idx, ok := s.index[k]; ok {
		return &s.scratch[idx] // ok: pointer into existing backing array, no literal
	}
	return s.createMissing(k)
}

func newShard() *shard {
	// ok: construction is not on any hot path
	return &shard{index: map[int64]int{}, err: errors.New("unset")}
}
