package emu

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"

	"spt/internal/isa"
)

// Snapshot is an immutable copy of a machine's complete architectural
// state: PC, registers, retired-instruction count, halt flag, and the
// memory image. Taking one is O(pages) pointer copies — the pages
// themselves are shared copy-on-write with the live memory, so neither
// continued emulation nor restored machines can mutate snapshot contents.
// A snapshot may therefore be restored any number of times, concurrently.
type Snapshot struct {
	PC      uint64
	Regs    [isa.NumRegs]uint64
	Retired uint64
	Halted  bool

	pages map[uint64]*page
}

// Snapshot captures the emulator's architectural state. The live memory
// keeps running: its pages are frozen and any later write clones the
// affected page first.
func (e *Emulator) Snapshot() *Snapshot {
	s := &Snapshot{
		PC:      e.State.PC,
		Regs:    e.State.Regs,
		Retired: e.State.Retired,
		Halted:  e.State.Halted,
	}
	s.pages = e.State.Mem.freeze()
	return s
}

// freeze marks every live page copy-on-write and returns an aliasing page
// map for a snapshot. The write cache is invalidated so no cached pointer
// can bypass the clone-on-write check.
func (m *Memory) freeze() map[uint64]*page {
	pages := make(map[uint64]*page, len(m.pages))
	if m.frozen == nil {
		m.frozen = make(map[uint64]struct{}, len(m.pages))
	}
	for pn, p := range m.pages {
		pages[pn] = p
		m.frozen[pn] = struct{}{}
	}
	m.Invalidate()
	return pages
}

// NewMemory builds a memory whose initial contents equal the snapshot's.
// The snapshot's pages are shared copy-on-write; the first write to each
// page clones it, so the snapshot stays intact. Safe to call concurrently
// on one snapshot.
func (s *Snapshot) NewMemory() *Memory {
	m := NewMemory()
	m.pages = make(map[uint64]*page, len(s.pages))
	m.frozen = make(map[uint64]struct{}, len(s.pages))
	for pn, p := range s.pages {
		m.pages[pn] = p
		m.frozen[pn] = struct{}{}
	}
	return m
}

// NewFromSnapshot builds an emulator for prog resuming from the snapshot.
func NewFromSnapshot(p *isa.Program, s *Snapshot) *Emulator {
	return &Emulator{
		Prog: p,
		State: State{
			PC:      s.PC,
			Regs:    s.Regs,
			Mem:     s.NewMemory(),
			Halted:  s.Halted,
			Retired: s.Retired,
		},
	}
}

// Restore rewinds the emulator to the snapshot's state. The previous
// memory is discarded.
func (e *Emulator) Restore(s *Snapshot) {
	e.State = State{
		PC:      s.PC,
		Regs:    s.Regs,
		Mem:     s.NewMemory(),
		Halted:  s.Halted,
		Retired: s.Retired,
	}
}

// Pages reports the number of pages captured by the snapshot.
func (s *Snapshot) Pages() int { return len(s.pages) }

// Hash returns the SHA-256 of the snapshot's canonical encoding: PC,
// retired count, halt flag and registers, then each allocated page (number
// and raw bytes) in ascending page-number order. The same execution always
// produces the same hash, so it serves as an architectural-state digest.
func (s *Snapshot) Hash() [32]byte {
	pns := make([]uint64, 0, len(s.pages))
	for pn := range s.pages {
		pns = append(pns, pn)
	}
	slices.Sort(pns)

	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(s.PC)
	u64(s.Retired)
	var halted uint64
	if s.Halted {
		halted = 1
	}
	u64(halted)
	for _, r := range s.Regs {
		u64(r)
	}
	u64(uint64(len(pns)))
	for _, pn := range pns {
		u64(pn)
		h.Write(s.pages[pn][:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
