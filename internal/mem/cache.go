// Package mem models the memory system of the simulated machine: set
// associative write-back caches whose lines carry MESI states (one core, so
// no coherence protocol runs), a non-blocking miss pipeline bounded by
// MSHRs, a TLB, a mesh NoC latency model for the banked L3, and DRAM. It
// is a timing model only: data values live in the functional backing store
// (emu.Memory); this package answers "when does this access complete" and
// tracks line residency for the shadow L1.
package mem

import "fmt"

// MESI is the coherence state of a cache line.
type MESI uint8

const (
	Invalid MESI = iota
	Shared
	Exclusive
	Modified
)

func (s MESI) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// line is one cache line's metadata. Data is not stored here (functional
// values live in the backing store).
type line struct {
	tag   uint64
	state MESI
	lru   uint64 // last-touch stamp
}

// CacheConfig describes one cache's geometry.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
	// LatencyCycles is the hit latency of this level.
	LatencyCycles uint64
}

// CacheStats counts cache events.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	cfg       CacheConfig
	sets      int
	lineShift uint
	setShift  uint // log2(sets); tags are (addr >> lineShift) >> setShift
	setMask   uint64
	lines     []line // sets*ways, row-major by set
	stamp     uint64
	stats     CacheStats

	// OnFill, if non-nil, is called when a line is installed (with the line
	// base address). OnEvict is called when a valid line is replaced or
	// invalidated. The shadow L1 hooks these.
	OnFill  func(lineAddr uint64)
	OnEvict func(lineAddr uint64)
}

// NewCache builds a cache from its configuration.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("mem: %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: %s: set count %d not a power of two", cfg.Name, sets))
	}
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		setMask: uint64(sets - 1),
		lines:   make([]line, sets*cfg.Ways),
	}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	for s := sets; s > 1; s >>= 1 {
		c.setShift++
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// LineAddr returns the line base address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ (uint64(c.cfg.LineBytes) - 1) }

func (c *Cache) setOf(addr uint64) int {
	return int((addr >> c.lineShift) & c.setMask)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	// sets is a power of two (checked in NewCache), so the tag is a shift
	// — a division here would dominate the tag scan, since the divisor is
	// only known at run time.
	return (addr >> c.lineShift) >> c.setShift
}

func (c *Cache) slot(set, way int) *line { return &c.lines[set*c.cfg.Ways+way] }

// locate returns the set and way holding addr's line, without updating
// LRU or statistics — the lookup half of Access, used to pin a (set, way)
// for a repeated-hit fast path (see Hierarchy.AccessInstr).
func (c *Cache) locate(addr uint64) (set, way int, ok bool) {
	set = c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state != Invalid && l.tag == tag {
			return set, w, true
		}
	}
	return 0, 0, false
}

// touch replays the bookkeeping half of a read hit on a known (set, way):
// the stamp advance, the access and hit counters, and the LRU refresh —
// exactly what Access(addr, false) does when it finds the line, minus the
// tag scan. The caller is responsible for (set, way) still holding the
// intended line.
func (c *Cache) touch(set, way int) {
	c.stamp++
	c.stats.Accesses++
	c.stats.Hits++
	c.slot(set, way).lru = c.stamp
}

// Probe reports whether addr's line is present, without updating LRU or
// statistics. Used by the covert-channel receiver in the penetration tests
// and by the shadow L1.
func (c *Cache) Probe(addr uint64) (MESI, bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	ls := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for w := range ls {
		if ls[w].state != Invalid && ls[w].tag == tag {
			return ls[w].state, true
		}
	}
	return Invalid, false
}

// Access looks up addr. On a hit it refreshes LRU and (for writes to
// non-Modified lines) upgrades the state. It reports hit/miss; the caller
// decides what a miss costs. It does NOT allocate: call Fill for that.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.stamp++
	c.stats.Accesses++
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	ls := c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
	for w := range ls {
		l := &ls[w]
		if l.state != Invalid && l.tag == tag {
			l.lru = c.stamp
			if write {
				l.state = Modified
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// Fill installs addr's line, evicting the LRU victim if the set is full.
// It returns the victim line address and whether a dirty victim was written
// back. state is the installed MESI state.
func (c *Cache) Fill(addr uint64, state MESI) (victimAddr uint64, writeback bool) {
	c.stamp++
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	// If the line is already resident, update its state in place; a cache
	// never holds two copies of one line.
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state != Invalid && l.tag == tag {
			l.state = state
			l.lru = c.stamp
			return 0, false
		}
	}
	victim := 0
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state == Invalid {
			victim = w
			break
		}
		if l.lru < c.slot(set, victim).lru {
			victim = w
		}
	}
	v := c.slot(set, victim)
	if v.state != Invalid {
		victimAddr = c.reconstructAddr(set, v.tag)
		writeback = v.state == Modified
		c.stats.Evictions++
		if writeback {
			c.stats.Writebacks++
		}
		if c.OnEvict != nil {
			c.OnEvict(victimAddr)
		}
	}
	*v = line{tag: tag, state: state, lru: c.stamp}
	if c.OnFill != nil {
		c.OnFill(c.LineAddr(addr))
	}
	return victimAddr, writeback
}

// Invalidate drops addr's line if present, reporting whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (wasDirty bool, wasPresent bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		l := c.slot(set, w)
		if l.state != Invalid && l.tag == tag {
			wasDirty = l.state == Modified
			l.state = Invalid
			if c.OnEvict != nil {
				c.OnEvict(c.LineAddr(addr))
			}
			return wasDirty, true
		}
	}
	return false, false
}

func (c *Cache) reconstructAddr(set int, tag uint64) uint64 {
	return (tag*uint64(c.sets) + uint64(set)) << c.lineShift
}

// FlushAll invalidates every line (used between penetration-test phases).
func (c *Cache) FlushAll() {
	for i := range c.lines {
		if c.lines[i].state != Invalid && c.OnEvict != nil {
			set := i / c.cfg.Ways
			c.OnEvict(c.reconstructAddr(set, c.lines[i].tag))
		}
		c.lines[i] = line{}
	}
}
