// Package predictor implements the front-end prediction structures of the
// simulated core: an LTAGE-class conditional branch predictor (TAGE tagged
// geometric-history tables plus a loop predictor), a branch target buffer,
// a return address stack, and a simple tagged indirect-target predictor.
//
// The paper's Table 1 machine uses gem5's LTAGE; this package implements
// the same predictor family from scratch.
package predictor

import "math/bits"

// tageTable is one tagged component of the TAGE predictor.
type tageTable struct {
	histLen int
	entries []tageEntry
	mask    uint64
	tagBits uint
}

type tageEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed counter: -4..3, taken if >= 0
	useful uint8 // 2-bit useful counter
}

// TAGE is a tagged geometric-history-length conditional branch predictor
// with a bimodal base table.
type TAGE struct {
	base   []int8 // 2-bit counters: -2..1, taken if >= 0
	mask   uint64
	tables []*tageTable

	rng uint32 // xorshift state for allocation randomization

	Stats TAGEStats
}

// TAGEStats counts predictor events.
type TAGEStats struct {
	Lookups     uint64
	ProviderHit uint64 // prediction came from a tagged table
	Allocs      uint64
}

// History is the speculative global branch history, owned by the fetch
// unit. Each in-flight branch snapshots it so squashes can restore it.
type History struct {
	G uint64 // global taken/not-taken history, newest bit at bit 0
	P uint64 // path history (low bits of branch PCs)
}

// Update shifts the outcome of one branch into the history.
func (h History) Update(pc uint64, taken bool) History {
	h.G <<= 1
	if taken {
		h.G |= 1
	}
	h.P = h.P<<1 | (pc & 1) | ((pc >> 5) & 1)
	return h
}

// NewTAGE builds a predictor with the given base-table size (entries,
// power of two) and tagged-table geometry.
func NewTAGE(baseEntries, taggedEntries int, histLens []int) *TAGE {
	t := &TAGE{
		base: make([]int8, baseEntries),
		mask: uint64(baseEntries - 1),
	}
	for _, hl := range histLens {
		t.tables = append(t.tables, &tageTable{
			histLen: hl,
			entries: make([]tageEntry, taggedEntries),
			mask:    uint64(taggedEntries - 1),
			tagBits: 10,
		})
	}
	t.Reset()
	return t
}

// Reset returns the predictor to the state NewTAGE builds: every counter
// and tagged entry cleared, the allocation RNG reseeded, counters zeroed.
func (t *TAGE) Reset() {
	clear(t.base)
	for _, tt := range t.tables {
		clear(tt.entries)
	}
	t.rng = 0x2545F491
	t.Stats = TAGEStats{}
}

// DefaultTAGE returns the configuration used by the simulated machine:
// a 4K-entry bimodal base and six 1K-entry tagged tables with geometric
// history lengths.
func DefaultTAGE() *TAGE {
	return NewTAGE(4096, 1024, []int{4, 8, 16, 32, 64, 128})
}

// fold compresses the low histLen bits of h into outBits by XOR-ing
// successive outBits-wide chunks together. It is the hottest function in
// functional warming (four calls per tagged table per branch), so the
// production geometries (outBits >= 8, i.e. at most eight chunks in a
// 64-bit word) use a branch-free doubling cascade: after h ^= h>>b, bit p
// holds chunk XORs at stride b; two more doublings cover strides 2b and
// 4b, so the low b bits end up with the XOR of all ceil(64/b) <= 8
// chunks. Shifts of 64 or more are well-defined in Go (they yield zero),
// which makes the later steps harmless no-ops once every chunk is folded
// in. Narrower outputs keep the reference loop; fold_test.go cross-checks
// the two forms.
func fold(h uint64, histLen, outBits int) uint64 {
	if histLen < 64 {
		h &= (1 << uint(histLen)) - 1
	}
	b := uint(outBits)
	if b >= 8 {
		h ^= h >> b
		h ^= h >> (2 * b)
		h ^= h >> (4 * b)
		return h & (1<<b - 1)
	}
	var f uint64
	for h != 0 {
		f ^= h & (1<<b - 1)
		h >>= b
	}
	return f
}

func (tt *tageTable) index(pc uint64, hist History) uint64 {
	idxBits := bits.TrailingZeros64(tt.mask + 1)
	h := fold(hist.G, tt.histLen, idxBits) ^ fold(hist.P, tt.histLen/2, idxBits)
	return (pc ^ (pc >> 7) ^ h) & tt.mask
}

func (tt *tageTable) tag(pc uint64, hist History) uint16 {
	h := fold(hist.G, tt.histLen, int(tt.tagBits)) ^ (fold(hist.G, tt.histLen, int(tt.tagBits)-1) << 1)
	return uint16((pc ^ h) & ((1 << tt.tagBits) - 1))
}

// Prediction describes a TAGE lookup result; it must be passed back to
// Update so the same provider entry is trained.
type Prediction struct {
	Taken     bool
	provider  int // index into tables, -1 for bimodal
	altTaken  bool
	indices   [8]uint64
	tags      [8]uint16
	baseIndex uint64
}

// Predict looks up the direction for the branch at pc under history hist,
// filling p in place (the struct carries per-table indices and tags for
// Update, so it is returned through a pointer to avoid copying it twice
// per branch).
func (t *TAGE) Predict(pc uint64, hist History, p *Prediction) {
	t.Stats.Lookups++
	*p = Prediction{provider: -1, baseIndex: pc & t.mask}
	p.Taken = t.base[p.baseIndex] >= 0
	p.altTaken = p.Taken
	for i, tt := range t.tables {
		p.indices[i] = tt.index(pc, hist)
		p.tags[i] = tt.tag(pc, hist)
		e := &tt.entries[p.indices[i]]
		if e.tag == p.tags[i] {
			p.altTaken = p.Taken
			p.Taken = e.ctr >= 0
			p.provider = i
		}
	}
	if p.provider >= 0 {
		t.Stats.ProviderHit++
	}
}

func (t *TAGE) nextRand() uint32 {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 17
	t.rng ^= t.rng << 5
	return t.rng
}

// Update trains the predictor with the branch's resolved direction.
func (t *TAGE) Update(pc uint64, hist History, p *Prediction, taken bool) {
	// Train the provider.
	if p.provider >= 0 {
		e := &t.tables[p.provider].entries[p.indices[p.provider]]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		// Useful counter: provider was right where the alternate was wrong.
		if (e.ctr >= 0) == taken && p.altTaken != taken {
			if e.useful < 3 {
				e.useful++
			}
		}
	} else {
		b := &t.base[p.baseIndex]
		if taken && *b < 1 {
			*b++
		} else if !taken && *b > -2 {
			*b--
		}
	}

	// On a misprediction, allocate a new entry in a longer-history table.
	if p.Taken != taken && p.provider < len(t.tables)-1 {
		start := p.provider + 1
		// Randomize the starting table a little to avoid ping-ponging.
		if start < len(t.tables)-1 && t.nextRand()&3 == 0 {
			start++
		}
		for i := start; i < len(t.tables); i++ {
			e := &t.tables[i].entries[p.indices[i]]
			if e.useful == 0 {
				e.tag = p.tags[i]
				e.useful = 0
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				t.Stats.Allocs++
				return
			}
		}
		// No free entry: age the useful counters along the allocation path.
		for i := start; i < len(t.tables); i++ {
			e := &t.tables[i].entries[p.indices[i]]
			if e.useful > 0 {
				e.useful--
			}
		}
	}
}
