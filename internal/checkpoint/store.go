package checkpoint

import (
	"sync"
	"sync/atomic"

	"spt/internal/isa"
	"spt/internal/mem"
)

// storeKey identifies one checkpoint: which workload, how far in, and the
// exact program contents (so regenerated workloads never hit stale
// entries).
type storeKey struct {
	Workload string
	Skip     uint64
	Hash     [32]byte
}

// StoreStats counts what the store did. Builds is the number of functional
// passes actually executed — a grid over N schemes x M models that shares a
// store shows Builds == number of distinct (workload, skip) prefixes, the
// direct evidence that each prefix ran exactly once.
type StoreStats struct {
	Builds  uint64 // functional passes executed
	MemHits uint64 // checkpoints served from memory
}

// Store caches warm checkpoints in memory. It is a build-once map:
// concurrent Gets for one key block on a single builder (singleflight), so
// a parallel grid executes each workload prefix exactly once.
type Store struct {
	mu      sync.Mutex
	entries map[storeKey]*storeEntry

	builds  atomic.Uint64
	memHits atomic.Uint64
}

type storeEntry struct {
	ready chan struct{} // closed when cp/err are set
	cp    *Checkpoint
	err   error
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[storeKey]*storeEntry)}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{Builds: s.builds.Load(), MemHits: s.memHits.Load()}
}

// Get returns the warm checkpoint for p's first skip instructions (hierarchy
// built from hcfg), building it at most once per key no matter how many
// goroutines ask.
func (s *Store) Get(p *isa.Program, skip uint64, hcfg mem.HierarchyConfig) (*Checkpoint, error) {
	key := storeKey{Workload: p.Name, Skip: skip, Hash: ProgramHash(p)}

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		<-e.ready
		if e.err == nil {
			s.memHits.Add(1)
		}
		return e.cp, e.err
	}
	e := &storeEntry{ready: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	// A functional pass is deterministic, so a failed build stays cached:
	// every later Get for the key reports the same error.
	e.cp, e.err = Build(p, skip, hcfg, true)
	if e.err == nil {
		s.builds.Add(1)
	}
	close(e.ready)
	return e.cp, e.err
}
