package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"openembedding/internal/cluster"
	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/obs"
	"openembedding/internal/pmem"
	"openembedding/internal/ps"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/serve"
	"openembedding/internal/simclock"
)

// numNodes is the cluster size every workload runs on.
const numNodes = 2

// refreshEvery is the serving snapshot refresh interval, oeps' default.
const refreshEvery = 250 * time.Millisecond

// arenaSlotsFactor matches ps.NodeConfig's default arena headroom.
const arenaSlotsFactor = 3

// benchNode is one in-process parameter-server node on loopback TCP.
type benchNode interface {
	Addr() string
	Crash() error
	// Restart recovers from the surviving PMem image and serves again; it
	// returns the checkpoint the node recovered to.
	Restart() (int64, error)
	Close() error
	Stats() psengine.Stats
	Refresh()
}

// plainNode is a node started exactly as oeps starts one: ps.StartNode
// with serving on.
type plainNode struct{ n *ps.Node }

func startPlain(cfg psengine.Config) (benchNode, error) {
	n, err := ps.StartNode("127.0.0.1:0", ps.NodeConfig{Engine: "pmem-oe", Store: cfg, Serve: true})
	if err != nil {
		return nil, err
	}
	return plainNode{n}, nil
}

func (p plainNode) Addr() string            { return p.n.Addr() }
func (p plainNode) Crash() error            { return p.n.Crash() }
func (p plainNode) Restart() (int64, error) { return p.n.Restart() }
func (p plainNode) Close() error            { return p.n.Close() }
func (p plainNode) Stats() psengine.Stats   { return p.n.Engine().Stats() }
func (p plainNode) Refresh() {
	if h := p.n.ServeHandler(); h != nil {
		_ = h.Refresh() // best effort, as in oeps: the next tick retries
	}
}

// tracedNode is a node assembled from the constructors ps.StartNode uses,
// with the benchmark's engine and bag-server wrappers passed to
// rpc.ServeOpts, a per-node obs registry and a virtual-time meter.
type tracedNode struct {
	idx   int
	store psengine.Config
	dev   *pmem.Device
	reg   *obs.Registry
	meter *simclock.Meter
	tr    *tracer
	bags  *tracedBags

	mu      sync.Mutex
	eng     *tracedEngine
	engines []*tracedEngine // every engine the node has run, for checkpoint lags
	srv     *rpc.Server
	addr    string
	epoch   int64
}

func startTraced(idx int, cfg psengine.Config, tr *tracer) (*tracedNode, error) {
	n := &tracedNode{idx: idx, reg: obs.NewRegistry(), meter: simclock.NewMeter(), tr: tr}
	store := cfg.WithDefaults()
	store.Obs = n.reg
	store.Meter = n.meter
	n.store = store
	payload := pmem.FloatBytes(store.EntryFloats())
	slots := store.Capacity * arenaSlotsFactor
	n.dev = pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(n.meter))
	arena, err := pmem.NewArena(n.dev, payload, slots)
	if err != nil {
		return nil, err
	}
	eng, err := core.New(store, arena)
	if err != nil {
		return nil, err
	}
	n.bags = &tracedBags{dim: store.Dim, node: idx, tr: tr}
	n.adopt(eng)
	if err := n.serve("127.0.0.1:0"); err != nil {
		eng.Close()
		return nil, err
	}
	return n, nil
}

func (n *tracedNode) adopt(eng *core.Engine) {
	n.eng = &tracedEngine{e: eng, node: n.idx, tr: n.tr}
	n.engines = append(n.engines, n.eng)
	n.bags.h.Store(serve.New(eng, n.reg))
}

func (n *tracedNode) serve(addr string) error {
	srv, err := rpc.ServeOpts(addr, n.eng, rpc.ServerOptions{Epoch: n.epoch, Bags: n.bags, Obs: n.reg})
	if err != nil {
		return err
	}
	n.srv = srv
	n.addr = srv.Addr()
	return nil
}

func (n *tracedNode) Addr() string { return n.addr }

func (n *tracedNode) Crash() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.srv.Close(); err != nil {
		return err
	}
	if err := n.eng.Close(); err != nil && !errors.Is(err, psengine.ErrClosed) {
		return err
	}
	n.dev.Crash()
	return nil
}

func (n *tracedNode) Restart() (int64, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.tr.now()
	eng, ckpt, err := core.Recover(n.store, n.dev)
	n.tr.record(layerEngine, opRecover, n.idx, ckpt, st)
	if err != nil {
		return -1, err
	}
	n.adopt(eng)
	n.epoch++
	return ckpt, n.serve(n.addr)
}

func (n *tracedNode) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	err := n.srv.Close()
	if cerr := n.eng.Close(); err == nil {
		err = cerr
	}
	return err
}

func (n *tracedNode) Stats() psengine.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Stats()
}

func (n *tracedNode) Refresh() {
	if h := n.bags.h.Load(); h != nil {
		_ = h.Refresh() // best effort, as in oeps: the next tick retries
	}
}

// ckptLags returns every recorded checkpoint lag, in batches.
func (n *tracedNode) ckptLags() []float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []float64
	for _, e := range n.engines {
		e.mu.Lock()
		out = append(out, e.lags.v...)
		e.mu.Unlock()
	}
	return out
}

// testCluster is a running cluster, its snapshot refreshers and the one
// cluster.Client (one connection per node) the load drives.
type testCluster struct {
	nodes     []benchNode
	ps        *gatedPS
	tr        *tracer
	clientReg *obs.Registry
	stopRef   chan struct{}
	refWG     sync.WaitGroup
}

// startCluster starts numNodes nodes (traced when tr is non-nil), their
// refreshers, and dials the client.
func startCluster(cfg psengine.Config, tr *tracer) (*testCluster, error) {
	c := &testCluster{tr: tr, stopRef: make(chan struct{})}
	for i := 0; i < numNodes; i++ {
		var n benchNode
		var err error
		if tr != nil {
			n, err = startTraced(i, cfg, tr)
		} else {
			n, err = startPlain(cfg)
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	if tr != nil {
		c.clientReg = obs.NewRegistry()
	}
	if err := c.dial(); err != nil {
		c.close()
		return nil, err
	}
	for _, n := range c.nodes {
		c.refWG.Add(1)
		go c.refresher(n)
	}
	return c, nil
}

func (c *testCluster) refresher(n benchNode) {
	defer c.refWG.Done()
	t := time.NewTicker(refreshEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopRef:
			return
		case <-t.C:
			n.Refresh()
		}
	}
}

func (c *testCluster) addrs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Addr()
	}
	return out
}

// dial (re)connects the cluster client, replacing any previous one.
func (c *testCluster) dial() error {
	if c.ps != nil {
		c.ps.c.Close()
	}
	cl, err := cluster.DialOpts(dim, c.addrs(), cluster.Options{RPC: rpc.Options{Obs: c.clientReg}})
	if err != nil {
		return err
	}
	c.ps = &gatedPS{c: cl, tr: c.tr}
	return nil
}

func (c *testCluster) stats() []psengine.Stats {
	out := make([]psengine.Stats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Stats()
	}
	return out
}

// crashRestart crashes node i, restarts it, and waits until a fresh
// connection answers a ping. It returns the wall time of the whole cycle
// and the checkpoint the node recovered to.
func (c *testCluster) crashRestart(i int) (time.Duration, int64, error) {
	st := time.Now()
	if err := c.nodes[i].Crash(); err != nil {
		return 0, -1, err
	}
	ckpt, err := c.nodes[i].Restart()
	if err != nil {
		return 0, -1, err
	}
	rc, err := rpc.Dial(c.nodes[i].Addr())
	if err != nil {
		return 0, -1, err
	}
	defer rc.Close()
	if err := rc.Ping(); err != nil {
		return 0, -1, err
	}
	return time.Since(st), ckpt, nil
}

func (c *testCluster) close() {
	close(c.stopRef)
	c.refWG.Wait()
	if c.ps != nil {
		c.ps.c.Close()
	}
	for _, n := range c.nodes {
		_ = n.Close() // teardown: the run's results are already taken
	}
}
