package workload

import "time"

// FlashCrowd models the serving tier's worst case: a small hot set that
// absorbs most of the traffic and *moves*. A crowd of size `hot` receives
// `hotShare` of all draws; every `rotate` of virtual time the crowd jumps
// to a fresh pseudo-random subset of the key space, so any cache or
// snapshot built on the old crowd goes cold at once. The remaining
// 1-hotShare of draws are uniform over the whole key space.
//
// Determinism: all randomness derives from splitmix64 over (seed, draw
// counter) and (seed, window, slot) — no math/rand, no wall clock — so two
// generators with the same seed and the same sequence of Advance/Sample
// calls produce identical traces on any platform, as the faultdet rules
// require. Time is supplied by the caller (the sim virtual clock);
// rotation is a pure function of that time.
type FlashCrowd struct {
	n        int
	hot      int
	hotShare float64
	rotate   time.Duration
	seed     uint64
	now      time.Duration
	ctr      uint64

	// window/crowd cache the materialized hot set for the current rotation
	// window so Sample is O(1).
	window uint64
	crowd  []uint64
}

// NewFlashCrowd builds a flash-crowd sampler: n keys total, a hot set of
// size hot drawing hotShare of traffic, rotated every rotate of virtual
// time.
func NewFlashCrowd(n, hot int, hotShare float64, rotate time.Duration, seed uint64) *FlashCrowd {
	if n < 1 || hot < 1 || hot > n {
		panic("workload: need 1 <= hot <= n")
	}
	if hotShare < 0 || hotShare > 1 {
		panic("workload: hot share must be in [0,1]")
	}
	if rotate <= 0 {
		panic("workload: rotation period must be positive")
	}
	f := &FlashCrowd{n: n, hot: hot, hotShare: hotShare, rotate: rotate, seed: seed, window: ^uint64(0)}
	f.materialize(0)
	return f
}

// splitmix64 is the standard SplitMix64 finalizer — a bijective avalanche
// mix used as a counter-based PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d4a2aeb9e7aabb
	return x ^ (x >> 31)
}

// materialize fills the crowd for rotation window w. Members are drawn by
// hashing (seed, w, slot); collisions are resolved by probing successive
// counters, so the crowd always holds exactly `hot` distinct keys.
func (f *FlashCrowd) materialize(w uint64) {
	if f.window == w {
		return
	}
	f.window = w
	if f.crowd == nil {
		f.crowd = make([]uint64, 0, f.hot)
	}
	f.crowd = f.crowd[:0]
	seen := make(map[uint64]struct{}, f.hot)
	for i := uint64(0); len(f.crowd) < f.hot; i++ {
		k := splitmix64(f.seed^splitmix64(w+1)^(i*0x9e3779b97f4a7c15)) % uint64(f.n)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		f.crowd = append(f.crowd, k)
	}
}

// Keys implements KeySampler.
func (f *FlashCrowd) Keys() int { return f.n }

// Advance moves the sampler's virtual clock. Clocks only move forward;
// an earlier now is ignored. Rotation happens lazily at the next Sample.
func (f *FlashCrowd) Advance(now time.Duration) {
	if now > f.now {
		f.now = now
	}
}

// Window returns the rotation window index at the current virtual time —
// equal windows mean an identical hot set.
func (f *FlashCrowd) Window() uint64 { return uint64(f.now / f.rotate) }

// HotSet returns a copy of the current hot set.
func (f *FlashCrowd) HotSet() []uint64 {
	f.materialize(f.Window())
	out := make([]uint64, len(f.crowd))
	copy(out, f.crowd)
	return out
}

// Sample implements KeySampler at the current virtual time.
func (f *FlashCrowd) Sample() uint64 {
	f.materialize(f.Window())
	f.ctr++
	r := splitmix64(f.seed ^ (f.ctr * 0xd6e8feb86659fd93))
	// Split r: the low 53 bits pick hot-vs-cold, the mixed remainder picks
	// the member. One splitmix64 call per draw keeps Sample cheap.
	u := float64(r>>11) / (1 << 53)
	if u < f.hotShare {
		return f.crowd[splitmix64(r)%uint64(len(f.crowd))]
	}
	return splitmix64(r) % uint64(f.n)
}

// SampleAt advances to now and draws one key — the one-call form for
// clock-driven loops.
func (f *FlashCrowd) SampleAt(now time.Duration) uint64 {
	f.Advance(now)
	return f.Sample()
}
