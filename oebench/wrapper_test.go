package main

import (
	"testing"

	"openembedding/internal/cluster"
	"openembedding/internal/core"
	"openembedding/internal/device"
	"openembedding/internal/pmem"
	"openembedding/internal/psengine"
	"openembedding/internal/rpc"
	"openembedding/internal/simclock"
)

// hiddenAdvance is a wrapper that forgets to forward AdvanceCheckpoints:
// the control showing that the test below can tell the difference.
type hiddenAdvance struct{ psengine.Engine }

func newTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	store := psengine.Config{Dim: dim, Capacity: 4096, CacheEntries: 256, Shards: 2, Meter: simclock.NewMeter()}.WithDefaults()
	payload := pmem.FloatBytes(store.EntryFloats())
	slots := store.Capacity * arenaSlotsFactor
	dev := pmem.NewDevice(pmem.ArenaLayout(payload, slots), device.NewTimedPMem(store.Meter))
	arena, err := pmem.NewArena(dev, payload, slots)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, arena)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// ckptProgress serves eng over TCP, drives the batch protocol through a
// cluster client with a checkpoint every 5 batches, polls the completed
// checkpoint a bounded number of times after each request (as the
// trainer's commit gate does), and returns the completed checkpoint seen
// after every batch.
func ckptProgress(t *testing.T, eng psengine.Engine) []int64 {
	t.Helper()
	srv, err := rpc.Serve("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := cluster.Dial(dim, []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ps := &gatedPS{c: cl}
	grads := fixedGrads(512*dim, 3)
	keys := make([]uint64, 512)
	var seen []int64
	for b := int64(0); b < 30; b++ {
		for i := range keys {
			keys[i] = uint64((int(b)*97 + i*13) % 2000)
		}
		if err := runBatch(ps, b, keys, make([]float32, len(keys)*dim), grads, (b+1)%5 == 0); err != nil {
			t.Fatal(err)
		}
		done, err := cl.CompletedCheckpoint()
		for poll := 0; (b+1)%5 == 0 && done < b && poll < 20 && err == nil; poll++ {
			done, err = cl.CompletedCheckpoint()
		}
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, done)
	}
	return seen
}

func TestTracedEngineKeepsCheckpointProgress(t *testing.T) {
	plainEng := newTestEngine(t)
	defer plainEng.Close()
	plain := ckptProgress(t, plainEng)

	wrappedEng := newTestEngine(t)
	defer wrappedEng.Close()
	wrapped := ckptProgress(t, &tracedEngine{e: wrappedEng, tr: newTracer()})

	for b := range plain {
		if plain[b] != wrapped[b] {
			t.Fatalf("after batch %d: completed checkpoint %d unwrapped, %d through tracedEngine\nplain   %v\nwrapped %v",
				b, plain[b], wrapped[b], plain, wrapped)
		}
	}
	if last := plain[len(plain)-1]; last != 29 {
		t.Fatalf("checkpoint 29 did not complete: %v", plain)
	}

	hiddenEng := newTestEngine(t)
	defer hiddenEng.Close()
	hidden := ckptProgress(t, hiddenAdvance{hiddenEng})
	same := true
	for b := range plain {
		same = same && plain[b] == hidden[b]
	}
	if same {
		t.Fatalf("a wrapper without AdvanceCheckpoints shows the same progress %v: the test cannot detect a dropped hook", hidden)
	}
}
