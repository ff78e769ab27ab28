package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return NewCache(CacheConfig{Name: "t", SizeBytes: 1024, Ways: 2, LineBytes: 64, LatencyCycles: 2})
}

func TestCacheHitAfterFill(t *testing.T) {
	c := smallCache()
	if c.Access(0x1000, false) {
		t.Fatal("cold cache hit")
	}
	c.Fill(0x1000, Exclusive)
	if !c.Access(0x1000, false) {
		t.Fatal("miss after fill")
	}
	if !c.Access(0x103F, false) {
		t.Fatal("miss within same line")
	}
	if c.Access(0x1040, false) {
		t.Fatal("hit on adjacent line")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 8 sets, 2 ways
	// Three lines mapping to the same set (stride = sets*line = 512).
	a, b, d := uint64(0x0000), uint64(0x0200), uint64(0x0400)
	c.Fill(a, Exclusive)
	c.Fill(b, Exclusive)
	c.Access(a, false) // make b the LRU
	victim, _ := c.Fill(d, Exclusive)
	if victim != b {
		t.Fatalf("victim = %#x, want %#x", victim, b)
	}
	if _, hit := c.Probe(a); !hit {
		t.Fatal("recently used line evicted")
	}
	if _, hit := c.Probe(b); hit {
		t.Fatal("LRU line still present")
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	c := smallCache()
	c.Fill(0x0000, Modified)
	c.Fill(0x0200, Exclusive)
	_, wb := c.Fill(0x0400, Exclusive) // evicts 0x0000 (LRU, dirty)
	if !wb {
		t.Fatal("dirty eviction did not report writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCacheWriteUpgradesState(t *testing.T) {
	c := smallCache()
	c.Fill(0x40, Exclusive)
	c.Access(0x40, true)
	if s, _ := c.Probe(0x40); s != Modified {
		t.Fatalf("state after write = %v, want M", s)
	}
}

func TestCacheFillEvictCallbacks(t *testing.T) {
	c := smallCache()
	var fills, evicts []uint64
	c.OnFill = func(a uint64) { fills = append(fills, a) }
	c.OnEvict = func(a uint64) { evicts = append(evicts, a) }
	c.Fill(0x0000, Exclusive)
	c.Fill(0x0200, Exclusive)
	c.Fill(0x0400, Exclusive)
	if len(fills) != 3 || len(evicts) != 1 || evicts[0] != 0x0000 {
		t.Fatalf("fills=%x evicts=%x", fills, evicts)
	}
	c.Invalidate(0x0200)
	if len(evicts) != 2 || evicts[1] != 0x0200 {
		t.Fatalf("invalidate callback missing: %x", evicts)
	}
}

func TestCacheVictimAddressReconstruction(t *testing.T) {
	f := func(raw uint64) bool {
		c := smallCache()
		addr := raw &^ 0x3F // line-align
		c.Fill(addr, Exclusive)
		s1 := c.setOf(addr)
		// Fill two more lines in the same set to force the victim out.
		c.Fill(addr+512, Exclusive)
		victim, _ := c.Fill(addr+1024, Exclusive)
		return victim == addr && c.setOf(victim) == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshHopsAndBanking(t *testing.T) {
	m := DefaultMesh()
	if m.Nodes() != 8 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	if m.Hops(0, 0) != 0 || m.Hops(0, 3) != 3 || m.Hops(0, 7) != 4 || m.Hops(4, 3) != 4 {
		t.Fatalf("hop distances wrong: %d %d %d", m.Hops(0, 3), m.Hops(0, 7), m.Hops(4, 3))
	}
	seen := make(map[int]bool)
	for i := uint64(0); i < 8; i++ {
		seen[m.BankOf(i*64)] = true
	}
	if len(seen) != 8 {
		t.Fatalf("banking does not spread lines: %v", seen)
	}
	// Same-node transfer still pays serialization (3 extra flits for 64B/16B).
	if got := m.TransferCycles(0, 0); got != 3 {
		t.Fatalf("local transfer = %d, want 3", got)
	}
	if got := m.TransferCycles(0, 7*64); got != 2*4+3 {
		t.Fatalf("far transfer = %d, want 11", got)
	}
}

func TestTLB(t *testing.T) {
	tlb := NewTLB(2, 4096, 50)
	if got := tlb.Translate(0x1000); got != 50 {
		t.Fatalf("cold miss latency = %d", got)
	}
	if got := tlb.Translate(0x1FFF); got != 0 {
		t.Fatalf("same-page hit latency = %d", got)
	}
	tlb.Translate(0x2000) // second entry
	tlb.Translate(0x1000) // refresh first
	tlb.Translate(0x3000) // evicts 0x2000 (LRU)
	if tlb.Present(0x2000) {
		t.Fatal("LRU page not evicted")
	}
	if !tlb.Present(0x1000) {
		t.Fatal("MRU page evicted")
	}
	if tlb.Stats.Misses != 3 {
		t.Fatalf("misses = %d, want 3", tlb.Stats.Misses)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	cfg := h.Config()

	// Cold access: TLB walk + full miss path to DRAM.
	done, ok := h.AccessData(0, 0x10000, false)
	if !ok {
		t.Fatal("MSHR stall on cold access")
	}
	wantMin := cfg.PageWalkCycles + cfg.L1D.LatencyCycles + cfg.L2.LatencyCycles +
		cfg.L3.LatencyCycles + cfg.DRAMCycles
	if done < wantMin {
		t.Fatalf("cold access done=%d, want >= %d", done, wantMin)
	}
	if h.Stats.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d", h.Stats.DRAMAccesses)
	}

	// Hot access on the same line: L1 hit, no TLB walk.
	done2, _ := h.AccessData(done, 0x10000, false)
	if done2 != done+cfg.L1D.LatencyCycles {
		t.Fatalf("hot access latency = %d, want %d", done2-done, cfg.L1D.LatencyCycles)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	cfg := h.Config()
	done, _ := h.AccessData(0, 0x20000, false)
	// Evict the line from L1D (8 ways; touch 8 other lines in the same set).
	setStride := uint64(cfg.L1D.SizeBytes / cfg.L1D.Ways)
	now := done
	for i := uint64(1); i <= 8; i++ {
		now, _ = h.AccessData(now+1000, 0x20000+i*setStride, false)
	}
	if _, present := h.L1D.Probe(0x20000); present {
		t.Skip("conflict eviction did not occur; geometry changed")
	}
	start := now + 100000
	done2, _ := h.AccessData(start, 0x20000, false)
	lat := done2 - start
	want := cfg.L1D.LatencyCycles + cfg.L2.LatencyCycles
	if lat != want {
		t.Fatalf("L2 hit latency = %d, want %d", lat, want)
	}
}

func TestHierarchyMSHRLimitAndMerge(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Issue 16 distinct line misses at cycle 0.
	for i := 0; i < 16; i++ {
		if _, ok := h.AccessData(0, uint64(0x100000+i*64), false); !ok {
			t.Fatalf("miss %d rejected early", i)
		}
	}
	if _, ok := h.AccessData(0, 0x200000, false); ok {
		t.Fatal("17th outstanding miss accepted")
	}
	if h.Stats.MSHRStalls != 1 {
		t.Fatalf("stalls = %d", h.Stats.MSHRStalls)
	}
	// A miss to an in-flight line merges instead of stalling. Evict it from
	// L1D first? It was filled already, so this is a hit; use a fresh
	// hierarchy to test merging precisely.
	h2 := NewHierarchy(DefaultHierarchyConfig())
	d1, _ := h2.AccessData(0, 0x300000, false)
	// Same line, before completion, after invalidating L1 residency to force
	// the MSHR-merge path.
	h2.L1D.Invalidate(0x300000)
	d2, ok := h2.AccessData(1, 0x300000, false)
	if !ok || d2 != d1 {
		t.Fatalf("merge: done=%d ok=%v, want %d", d2, ok, d1)
	}
	if h2.Stats.MSHRMerges != 1 {
		t.Fatalf("merges = %d", h2.Stats.MSHRMerges)
	}
	// After completion the MSHR frees.
	if got := h2.OutstandingMisses(d1 + 1); got != 0 {
		t.Fatalf("outstanding after completion = %d", got)
	}
}

func TestHierarchyInstrPath(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	cfg := h.Config()
	done := h.AccessInstr(0, 0x4000)
	if done < cfg.L1I.LatencyCycles+cfg.L2.LatencyCycles+cfg.L3.LatencyCycles+cfg.DRAMCycles {
		t.Fatalf("cold fetch too fast: %d", done)
	}
	done2 := h.AccessInstr(done, 0x4000)
	if done2 != done+cfg.L1I.LatencyCycles {
		t.Fatalf("hot fetch latency = %d", done2-done)
	}
}

func TestHierarchyFlushAll(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.AccessData(0, 0x5000, false)
	h.FlushAll()
	if _, present := h.L1D.Probe(0x5000); present {
		t.Fatal("line survived flush")
	}
	if h.OutstandingMisses(0) != 0 {
		t.Fatal("MSHRs survived flush")
	}
}

func TestCacheFlushCallbacks(t *testing.T) {
	c := smallCache()
	evicts := 0
	c.OnEvict = func(uint64) { evicts++ }
	c.Fill(0x0, Exclusive)
	c.Fill(0x40, Exclusive)
	c.FlushAll()
	if evicts != 2 {
		t.Fatalf("flush evict callbacks = %d, want 2", evicts)
	}
}

func TestCacheProbeNoSideEffects(t *testing.T) {
	c := smallCache()
	c.Probe(0x1234)
	if c.Stats().Accesses != 0 {
		t.Fatal("probe counted as access")
	}
}

// TestCacheSingleCopyInvariant: arbitrary fill/invalidate/access sequences
// never create two copies of one line.
func TestCacheSingleCopyInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := smallCache()
	addrs := make([]uint64, 12)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(4)) * 512 // heavy set conflicts
	}
	count := func(addr uint64) int {
		n := 0
		// Probe every way via repeated invalidation: each Invalidate
		// removes at most one copy.
		for {
			if _, present := c.Probe(addr); !present {
				break
			}
			c.Invalidate(addr)
			n++
			if n > 8 {
				break
			}
		}
		// Reinstall a single copy so the test can continue.
		if n > 0 {
			c.Fill(addr, Exclusive)
		}
		return n
	}
	for step := 0; step < 3000; step++ {
		a := addrs[rng.Intn(len(addrs))]
		switch rng.Intn(4) {
		case 0:
			c.Fill(a, Exclusive)
		case 1:
			c.Fill(a, Modified)
		case 2:
			c.Access(a, rng.Intn(2) == 0)
		case 3:
			c.Invalidate(a)
		}
		if step%100 == 0 {
			for _, a := range addrs {
				if n := count(a); n > 1 {
					t.Fatalf("step %d: line %#x present %d times", step, a, n)
				}
			}
		}
	}
}

// TestTLBNeverExceedsCapacity: the TLB's resident set is bounded.
func TestTLBNeverExceedsCapacity(t *testing.T) {
	tlb := NewTLB(8, 4096, 50)
	rng := rand.New(rand.NewSource(13))
	resident := 0
	for i := 0; i < 5000; i++ {
		addr := uint64(rng.Intn(64)) << 12
		if tlb.Translate(addr) == 0 {
			continue
		}
		resident++
	}
	// Count how many of the 64 pages currently hit.
	hits := 0
	for p := uint64(0); p < 64; p++ {
		if tlb.Present(p << 12) {
			hits++
		}
	}
	if hits > 8 {
		t.Fatalf("TLB holds %d pages, capacity 8", hits)
	}
}
