package spt

import (
	"spt/internal/checkpoint"
	"spt/internal/isa"
	"spt/internal/mem"
)

// CheckpointStore caches functional fast-forward checkpoints across runs.
// Share one store across a grid (EvalOptions.Checkpoints, or the default
// RunJobs wiring) and each distinct (workload, skip distance, program
// content) prefix executes exactly once no matter how many scheme x model
// cells restore from it, concurrently or not.
type CheckpointStore struct {
	inner *checkpoint.Store
}

// NewCheckpointStore returns an empty in-memory store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{inner: checkpoint.NewStore()}
}

// CheckpointStoreStats counts store activity. Builds is the number of
// functional passes executed — for a shared store over an N-scheme x
// M-model grid it equals the number of distinct workload prefixes, the
// direct evidence each prefix ran once, not NxM times.
type CheckpointStoreStats struct {
	Builds  uint64 // functional fast-forward passes executed
	MemHits uint64 // checkpoints served from memory
}

// Stats returns a snapshot of the store's counters.
func (s *CheckpointStore) Stats() CheckpointStoreStats {
	st := s.inner.Stats()
	return CheckpointStoreStats{Builds: st.Builds, MemHits: st.MemHits}
}

// checkpointFor returns the checkpoint for p's first o.SkipInstructions
// instructions, warm, via the run's store (building an unshared one-shot
// checkpoint when no store is configured).
func (o Options) checkpointFor(p *isa.Program) (*checkpoint.Checkpoint, error) {
	hcfg := mem.DefaultHierarchyConfig()
	if o.Checkpoints != nil {
		return o.Checkpoints.inner.Get(p, o.SkipInstructions, hcfg)
	}
	return checkpoint.Build(p, o.SkipInstructions, hcfg, true)
}
