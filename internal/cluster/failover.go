package cluster

import (
	"errors"
	"fmt"

	"openembedding/internal/rpc"
)

// Replicated bag reads (DESIGN.md §15) with gray-failure degradation
// (§16): every key has a preferred owner on the ring and, with
// two or more nodes, a distinct replica (Ring.Secondary) kept warm by
// SyncReplicas pushes into the replica's serve overlay. PullBags prefers
// the owner; the owner is routed around when it is *degraded* — a
// transport failure or timeout, a shed (busy) response, or mere suspicion
// by the failure detector — and the keys are regrouped by their per-key
// replica and re-read there. A slow owner the detector has never observed
// is not suspected: it costs one read deadline, then fails over hard.
// When the replicas cannot answer either, the stale fallback tier
// (serve.StaleTier) is the last line: the read succeeds, flagged stale,
// instead of erroring.
// Training pushes remain single-owner: replicas serve reads only, and a
// replica row is as stale as the last SyncReplicas that refreshed it.

// errSuspectedOwner is the failover cause recorded when the detector
// preempts an owner read.
var errSuspectedOwner = errors.New("cluster: owner suspected by failure detector")

// failoverCause attributes a failover for the split counters.
type failoverCause int

const (
	causeHard    failoverCause = iota // the owner answered with a degraded error
	causeSuspect                      // the detector preempted the owner read
)

// countFailover tallies one failover in the aggregate counter and its
// cause-split counter (cluster_failovers_{hard,suspect}).
func (c *Client) countFailover(cause failoverCause) {
	c.failovers.Add(1)
	switch cause {
	case causeHard:
		c.foHard.Add(1)
	case causeSuspect:
		c.foSuspect.Add(1)
	}
}

// bagRequest fetches one node's share of a PullBags fan-out: the partial
// sums for all bags over nodeKeys, grouped under nodeOffs. Around the
// owner read it adds suspicion preemption, failover and the stale
// fallback tier.
func (c *Client) bagRequest(ring *Ring, n, bags int, offs []uint32, keys []uint64) (vals []float32, stale bool, err error) {
	// Suspicion preempts the owner read entirely: a gray-failed owner
	// would burn the full read deadline before surfacing an error, which
	// is exactly the latency the detector exists to save.
	if c.suspectedNow(n) {
		if vals, rerr := c.bagViaReplicas(ring, n, bags, offs, keys, errSuspectedOwner); rerr == nil {
			c.countFailover(causeSuspect)
			return vals, false, nil
		}
		// Replicas cannot cover the share either; serve stale rather than
		// wait out a suspected owner's deadline.
		if vals, ok := c.bagStale(bags, offs, keys); ok {
			return vals, true, nil
		}
		// No stale tier configured: the suspected owner is still the best
		// remaining option — fall through and ask it after all.
	}
	vals, err = c.bagNode(n, bags, offs, keys)
	if err == nil || !rpc.IsDegraded(err) {
		return vals, false, err
	}
	c.countFailover(causeHard)
	vals, rerr := c.bagViaReplicas(ring, n, bags, offs, keys, err)
	if rerr == nil {
		return vals, false, nil
	}
	if vals, ok := c.bagStale(bags, offs, keys); ok {
		return vals, true, nil
	}
	return nil, false, rerr
}

// bagNode issues the owner read to node n and validates the result shape.
func (c *Client) bagNode(n, bags int, offs []uint32, keys []uint64) ([]float32, error) {
	vals, err := c.nodes[n].PullBags(false, offs, keys)
	if err != nil {
		return nil, err
	}
	if len(vals) != bags*c.dim {
		return nil, fmt.Errorf("returned %d floats for %d bags", len(vals), bags)
	}
	return vals, nil
}

// bagViaReplicas re-reads node n's share from the keys' replica nodes:
// keys are regrouped per replica (each key's Ring.Secondary), the replica
// requests run sequentially in node-index order, and the partial sums are
// added in that same order — so the substituted partial is bit-identical
// to what a deterministic replica sum would produce, and the caller's
// node-order accumulation stays deterministic. cause is the owner's
// failure, returned when some key has no replica to fail over to.
func (c *Client) bagViaReplicas(ring *Ring, n, bags int, offs []uint32, keys []uint64, cause error) ([]float32, error) {
	nn := len(c.nodes)
	repKeys := make([][]uint64, nn)
	repOffs := make([][]uint32, nn)
	for r := range repOffs {
		repOffs[r] = make([]uint32, 1, bags+1)
	}
	for b := 0; b < bags; b++ {
		for _, k := range keys[offs[b]:offs[b+1]] {
			r := ring.Secondary(k)
			if r < 0 || r == n || r >= nn {
				return nil, fmt.Errorf("no replica for key %d: %w", k, cause)
			}
			repKeys[r] = append(repKeys[r], k)
		}
		for r := range repOffs {
			repOffs[r] = append(repOffs[r], uint32(len(repKeys[r])))
		}
	}
	acc := make([]float32, bags*c.dim)
	for r := 0; r < nn; r++ {
		if len(repKeys[r]) == 0 {
			continue
		}
		vals, err := c.bagNode(r, bags, repOffs[r], repKeys[r])
		if err != nil {
			return nil, fmt.Errorf("replica node %d (%s): %w", r, c.addrs[r], err)
		}
		for i, v := range vals {
			acc[i] += v
		}
	}
	return acc, nil
}

// bagStale answers one node's share from the stale fallback tier: each
// key contributes its last refreshed row (keys never refreshed contribute
// the zero vector — the documented staleness doctrine), summed per bag.
// Reports false without a configured tier.
func (c *Client) bagStale(bags int, offs []uint32, keys []uint64) ([]float32, bool) {
	if c.stale == nil {
		return nil, false
	}
	acc := make([]float32, bags*c.dim)
	for b := 0; b < bags; b++ {
		dst := acc[b*c.dim : (b+1)*c.dim]
		for _, k := range keys[offs[b]:offs[b+1]] {
			row := c.stale.Lookup(k)
			if len(row) != c.dim {
				continue
			}
			for i, v := range row {
				dst[i] += v
			}
		}
	}
	c.stale.Fallback()
	return acc, true
}
