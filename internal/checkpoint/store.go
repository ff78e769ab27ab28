package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"spt/internal/emu"
	"spt/internal/isa"
	"spt/internal/mem"
)

// Key identifies one checkpoint: which workload, how far in, and the exact
// program contents (so regenerated workloads never hit stale entries).
type Key struct {
	Workload string
	Skip     uint64
	Hash     [32]byte
}

// StoreStats counts what the store did. Builds is the number of functional
// passes actually executed — a grid over N schemes x M models that shares a
// store shows Builds == number of distinct (workload, skip) prefixes, the
// direct evidence that each prefix ran exactly once.
type StoreStats struct {
	Builds    uint64 // functional passes executed
	MemHits   uint64 // checkpoints served from memory
	DiskHits  uint64 // cold checkpoints served from disk without a pass
	DiskSaves uint64 // snapshot files written
}

// Store caches checkpoints. In memory it is a build-once map: concurrent
// Gets for one key block on a single builder (singleflight), so a parallel
// grid executes each workload prefix exactly once. With a directory
// configured, architectural snapshots also persist across processes.
//
// Disk files hold only architectural state (pages, registers, PC) — warm
// cache/predictor state is rebuilt by functional replay when requested, and
// the replayed snapshot's content hash is cross-checked against the file's,
// so results are bit-identical whether or not the file existed.
type Store struct {
	dir string

	mu      sync.Mutex
	entries map[Key]*storeEntry

	builds    atomic.Uint64
	memHits   atomic.Uint64
	diskHits  atomic.Uint64
	diskSaves atomic.Uint64
}

type storeEntry struct {
	ready chan struct{} // closed when cp/err are set
	cp    *Checkpoint
	err   error
}

// NewStore returns a store. dir is the on-disk cache directory; empty means
// memory-only. The directory is created on first save.
func NewStore(dir string) *Store {
	return &Store{dir: dir, entries: make(map[Key]*storeEntry)}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Builds:    s.builds.Load(),
		MemHits:   s.memHits.Load(),
		DiskHits:  s.diskHits.Load(),
		DiskSaves: s.diskSaves.Load(),
	}
}

// Get returns the checkpoint for p's first skip instructions, building it
// at most once per key no matter how many goroutines ask. With warm set the
// checkpoint carries functionally warmed hierarchy/predictor state (built
// from hcfg); without it, a disk file can satisfy the request with no
// functional pass at all.
func (s *Store) Get(p *isa.Program, skip uint64, hcfg mem.HierarchyConfig, warm bool) (*Checkpoint, error) {
	key := Key{Workload: p.Name, Skip: skip, Hash: ProgramHash(p)}

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

	e.cp, e.err = s.build(key, p, skip, hcfg, warm)
	if e.err != nil {
		// Drop failed entries so a later call can retry (e.g. after the
		// user deletes a corrupt file).
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
	}
	close(e.ready)
	return e.cp, e.err
}

func (s *Store) build(key Key, p *isa.Program, skip uint64, hcfg mem.HierarchyConfig, warm bool) (*Checkpoint, error) {
	disk, diskErr := s.load(key)
	if diskErr != nil {
		return nil, diskErr
	}
	if disk != nil && !warm {
		s.diskHits.Add(1)
		return &Checkpoint{Snap: disk}, nil
	}

	cp, err := Build(p, skip, hcfg, warm)
	if err != nil {
		return nil, err
	}
	s.builds.Add(1)

	if disk != nil {
		// Replayed and on-disk state must agree; a mismatch means the file
		// is stale or corrupt (the program hash matched, so the program is
		// not the culprit).
		want, err1 := disk.Hash()
		got, err2 := cp.Snap.Hash()
		if err1 != nil || err2 != nil || want != got {
			return nil, fmt.Errorf("checkpoint: on-disk snapshot for %s@%d does not match functional replay (stale or corrupt file %s)",
				key.Workload, key.Skip, s.path(key))
		}
		return cp, nil
	}
	if err := s.save(key, cp.Snap); err != nil {
		return nil, err
	}
	return cp, nil
}

// ckptMagic versions the checkpoint-file framing (which wraps the snapshot
// format versioned by its own magic).
const ckptMagic = "SPTCKPF1"

// path returns the file name for a key: workload, skip distance, and a
// short program-hash prefix for human-auditable cache directories.
func (s *Store) path(key Key) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, key.Workload)
	return filepath.Join(s.dir, fmt.Sprintf("%s-skip%d-%s.ckpt", name, key.Skip, hex.EncodeToString(key.Hash[:6])))
}

// load reads and verifies the snapshot file for key, if the store has a
// directory and the file exists. A missing file returns (nil, nil); a
// present-but-invalid file returns an error rather than silently
// rebuilding, so corruption is never papered over.
func (s *Store) load(key Key) (*emu.Snapshot, error) {
	if s.dir == "" {
		return nil, nil
	}
	b, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	snap, err := decodeFile(key, b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", s.path(key), err)
	}
	return snap, nil
}

// decodeFile parses a checkpoint file's framing (magic, program hash,
// snapshot hash, skip distance, snapshot body) and checks it against key
// and the body's integrity hash before decoding the snapshot.
func decodeFile(key Key, b []byte) (*emu.Snapshot, error) {
	if len(b) < len(ckptMagic)+32+32+8 || string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, errors.New("not a checkpoint file")
	}
	b = b[len(ckptMagic):]
	var progHash, snapHash [32]byte
	copy(progHash[:], b[:32])
	copy(snapHash[:], b[32:64])
	skip := binary.LittleEndian.Uint64(b[64:72])
	body := b[72:]
	if progHash != key.Hash || skip != key.Skip {
		return nil, errors.New("built for a different program or skip distance")
	}
	if sha256.Sum256(body) != snapHash {
		return nil, errors.New("failed its integrity check (corrupt)")
	}
	return emu.UnmarshalSnapshot(body)
}

// encodeFile frames snap as the checkpoint file for key.
func encodeFile(key Key, snap *emu.Snapshot) ([]byte, error) {
	body, err := snap.MarshalBinary()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	out := make([]byte, 0, len(ckptMagic)+32+32+8+len(body))
	out = append(out, ckptMagic...)
	out = append(out, key.Hash[:]...)
	out = append(out, sum[:]...)
	out = binary.LittleEndian.AppendUint64(out, key.Skip)
	return append(out, body...), nil
}

// save writes the snapshot file for key atomically (temp file + rename).
func (s *Store) save(key Key, snap *emu.Snapshot) error {
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	out, err := encodeFile(key, snap)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}

	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.diskSaves.Add(1)
	return nil
}
