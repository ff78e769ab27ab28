package checkpoint

import (
	"sync"
	"testing"

	"spt/internal/emu"
	"spt/internal/mem"
	"spt/internal/pipeline"
)

// TestConcurrentWindowForks exercises the exact sharing pattern of the
// parallel-window sampling driver, designed to be run under -race: many
// workers fork from one checkpoint (copy-on-write snapshot plus cloned
// warm state) and mutate their private copies, while the parent walker
// keeps advancing past the fork point and taking further checkpoints.
// Frozen pages must stay immutable (the checkpoint's digest cannot move)
// and every fork must compute the identical result.
func TestConcurrentWindowForks(t *testing.T) {
	p := buildProg(t, "gcc", 1<<40)
	hcfg := mem.DefaultHierarchyConfig()
	w := NewWalker(p, hcfg, true)
	if err := w.Advance(10_000); err != nil {
		t.Fatal(err)
	}
	cp := w.Checkpoint()
	before := cp.Snap.Hash()

	const forks = 8
	var wg sync.WaitGroup
	cycles := make([]uint64, forks)
	digests := make([][32]byte, forks)
	errs := make([]error, forks)
	for k := 0; k < forks; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			// Detailed fork: boot a core from the warm checkpoint and run a
			// measured region (stores retire into the CoW memory).
			snap, hier, pred := cp.Materialize(hcfg)
			core, err := pipeline.BootFromSnapshot(pipeline.DefaultConfig(), p, hier, nil, snap, pred)
			if err != nil {
				errs[k] = err
				return
			}
			if err := core.Run(2_000, 4_000_000); err != nil {
				errs[k] = err
				return
			}
			cycles[k] = core.Stats.Cycles

			// Functional fork from the same snapshot: heavier memory
			// mutation, then a digest of the fork's private final state.
			em := emu.NewFromSnapshot(p, snap)
			if _, err := em.Run(20_000); err != nil {
				errs[k] = err
				return
			}
			digests[k] = em.Snapshot().Hash()
		}(k)
	}

	// Meanwhile the parent walker streams ahead, mutating its own memory
	// (breaking CoW sharing page by page) and minting more checkpoints —
	// just like the sampling producer does while windows are in flight.
	for i := 1; i <= 4; i++ {
		if err := w.Advance(10_000 + uint64(i)*5_000); err != nil {
			t.Fatal(err)
		}
		w.Checkpoint()
	}
	wg.Wait()

	for k, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", k, err)
		}
	}
	if cp.Snap.Hash() != before {
		t.Error("checkpoint snapshot digest moved: a fork or the walker wrote a frozen page in place")
	}
	for k := 1; k < forks; k++ {
		if cycles[k] != cycles[0] {
			t.Errorf("fork %d took %d cycles, fork 0 took %d — concurrent forks diverged", k, cycles[k], cycles[0])
		}
		if digests[k] != digests[0] {
			t.Errorf("fork %d final memory digest differs from fork 0", k)
		}
	}
}
