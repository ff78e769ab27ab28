package emu

import (
	"testing"
	"testing/quick"

	"spt/internal/isa"
	"spt/internal/workloads"
)

// TestSnapshotIsolatesLaterWrites is the copy-on-write contract: writes
// after a snapshot — through the write-path page cache included — must not
// leak into the snapshot, and writes through a restored memory must not
// leak back into it either.
func TestSnapshotIsolatesLaterWrites(t *testing.T) {
	e := New(&isa.Program{Code: []isa.Instruction{{Op: isa.HALT}}})
	m := e.State.Mem
	m.SetByte(0x10, 1)
	m.SetByte(0x10, 1) // second write goes through the cached-page fast path

	s := e.Snapshot()
	m.SetByte(0x10, 2) // must clone the frozen page, not mutate it

	m2 := s.NewMemory()
	if got := m2.ByteAt(0x10); got != 1 {
		t.Fatalf("snapshot saw a post-snapshot write: byte = %d, want 1", got)
	}
	m2.SetByte(0x10, 3)
	if got := s.NewMemory().ByteAt(0x10); got != 1 {
		t.Fatalf("restored-memory write leaked into the snapshot: byte = %d, want 1", got)
	}
	if got := m.ByteAt(0x10); got != 2 {
		t.Fatalf("live memory lost its own write: byte = %d, want 2", got)
	}
}

// TestInvalidateDropsStalePagePointers is the regression test for the
// page-cache staleness bug: before Invalidate existed, replacing a page in
// the page map left the direct-mapped caches pointing at the old page, so
// reads served dropped data. Snapshot restore replaces pages wholesale and
// depends on Invalidate for correctness.
func TestInvalidateDropsStalePagePointers(t *testing.T) {
	m := NewMemory()
	m.SetByte(0x40, 7) // installs the page in both caches

	repl := new(page)
	repl[0x40] = 9
	for pn := range m.pages {
		m.pages[pn] = repl
	}
	if got := m.ByteAt(0x40); got != 7 {
		t.Fatalf("precondition: expected the stale cached page to serve 7, got %d", got)
	}
	m.Invalidate()
	if got := m.ByteAt(0x40); got != 9 {
		t.Fatalf("after Invalidate: byte = %d, want 9 (cache still stale)", got)
	}
}

// TestSnapshotResumeMatchesUninterrupted is the snapshot round-trip
// property: for random programs, running k steps, snapshotting, and
// resuming from the snapshot reaches exactly the state an uninterrupted
// run reaches — registers, PC, retirement count, halt flag, and memory.
func TestSnapshotResumeMatchesUninterrupted(t *testing.T) {
	f := func(seed int64, kRaw uint16) bool {
		p := workloads.RandomProgram(seed, 40)
		const budget = 2000
		k := uint64(kRaw) % budget

		ref := New(p)
		if _, err := ref.Run(budget); err != nil {
			return true // programs that trap are outside this property
		}

		e := New(p)
		if _, err := e.Run(k); err != nil {
			return true
		}
		snap := e.Snapshot()
		if _, err := e.Run(budget - k); err != nil { // snapshotted machine keeps going
			return true
		}

		r := NewFromSnapshot(p, snap)
		if _, err := r.Run(budget - k); err != nil {
			t.Logf("seed %d k %d: resume error", seed, k)
			return false
		}
		for _, pair := range [][2]*State{{&ref.State, &e.State}, {&ref.State, &r.State}} {
			a, b := pair[0], pair[1]
			if a.PC != b.PC || a.Regs != b.Regs || a.Retired != b.Retired || a.Halted != b.Halted {
				t.Logf("seed %d k %d: arch state diverged", seed, k)
				return false
			}
		}
		// Compare memory over every page either machine touched.
		seen := map[uint64]bool{}
		for pn := range ref.State.Mem.pages {
			seen[pn] = true
		}
		for pn := range r.State.Mem.pages {
			seen[pn] = true
		}
		for pn := range seen {
			base := pn << pageShift
			for off := uint64(0); off < pageSize; off += 8 {
				if ref.State.Mem.Read(base+off, 8) != r.State.Mem.Read(base+off, 8) {
					t.Logf("seed %d k %d: memory diverged at %#x", seed, k, base+off)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotMarshalRoundTrip pins Hash as a content identity: a
// snapshot restored into a fresh emulator and snapshotted again hashes the
// same, an independent run to the same point hashes the same, and
// executing further changes the hash.
func TestSnapshotMarshalRoundTrip(t *testing.T) {
	w, err := workloads.ByName("aes-bitslice")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(1 << 40)
	e := New(p)
	if _, err := e.Run(500); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	h := snap.Hash()

	if got := NewFromSnapshot(p, snap).Snapshot().Hash(); got != h {
		t.Fatalf("restore and re-snapshot changed the hash: %x vs %x", got, h)
	}
	twin := New(p)
	if _, err := twin.Run(500); err != nil {
		t.Fatal(err)
	}
	if got := twin.Snapshot().Hash(); got != h {
		t.Fatalf("independent run to the same point hashed %x, want %x", got, h)
	}
	if _, err := twin.Run(1); err != nil {
		t.Fatal(err)
	}
	if got := twin.Snapshot().Hash(); got == h {
		t.Fatal("executing one more instruction left the hash unchanged")
	}
}
