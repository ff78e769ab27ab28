package pipeline

import (
	"slices"
	"testing"
)

// ages returns at(i..n-1) by value.
func ages(r *ring[int], i int) []int {
	var out []int
	for ; i < r.n; i++ {
		out = append(out, *r.at(i))
	}
	return out
}

// TestRingFillAndWrap fills the ring to capacity, then keeps popping and
// pushing so the live range wraps the backing array several times.
func TestRingFillAndWrap(t *testing.T) {
	var r ring[int]
	r.reset(5)
	next := 0
	for r.n < 5 {
		*r.push() = next
		next++
	}
	if got := ages(&r, 0); !slices.Equal(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("full ring = %v", got)
	}
	oldest := 0
	for step := 0; step < 17; step++ {
		r.popHead()
		oldest++
		*r.push() = next
		next++
		want := make([]int, 5)
		for i := range want {
			want[i] = oldest + i
		}
		if got := ages(&r, 0); !slices.Equal(got, want) {
			t.Fatalf("step %d: ring = %v, want %v", step, got, want)
		}
	}
}

// TestRingFromMatchesAt checks from(i) against at(i..n-1) for every head
// position, occupancy and start index.
func TestRingFromMatchesAt(t *testing.T) {
	const capacity = 6
	for head := 0; head < capacity; head++ {
		for n := 0; n <= capacity; n++ {
			var r ring[int]
			r.reset(capacity)
			for range head { // advance head through pushes and pops
				r.push()
				r.popHead()
			}
			for v := range n {
				*r.push() = 100 + v
			}
			for i := 0; i <= n; i++ {
				a, b := r.from(i)
				got := append(slices.Clone(a), b...)
				if want := ages(&r, i); !slices.Equal(got, want) {
					t.Fatalf("head %d n %d: from(%d) = %v+%v, want %v", head, n, i, a, b, want)
				}
				if len(a) == 0 && len(b) != 0 {
					t.Fatalf("head %d n %d: from(%d) has an empty first segment", head, n, i)
				}
			}
		}
	}
}

// TestRingTruncateReusesSlot: dropping the youngest entry by lowering n
// and pushing again hands back the same, zeroed slot.
func TestRingTruncateReusesSlot(t *testing.T) {
	var r ring[int]
	r.reset(4)
	for v := range 3 {
		*r.push() = 10 + v
	}
	tail := r.at(2)
	r.n--
	p := r.push()
	if p != tail {
		t.Fatal("push after truncation used a different slot")
	}
	if *p != 0 {
		t.Fatalf("reused slot holds %d, want it zeroed", *p)
	}
	if got := ages(&r, 0); !slices.Equal(got, []int{10, 11, 0}) {
		t.Fatalf("ring = %v", got)
	}
}

// TestRingResetReusesBacking: reset keeps the backing array when it is
// large enough, empties the ring and zeroes every slot.
func TestRingResetReusesBacking(t *testing.T) {
	var r ring[*int]
	r.reset(4)
	x := 7
	for range 3 {
		*r.push() = &x
	}
	r.popHead()
	base := &r.buf[0]
	r.reset(4)
	if &r.buf[0] != base {
		t.Fatal("reset reallocated a large-enough backing array")
	}
	if r.n != 0 || r.head != 0 {
		t.Fatalf("after reset: head %d n %d, want 0 0", r.head, r.n)
	}
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d not cleared by reset", i)
		}
	}
	r.reset(8)
	if len(r.buf) != 8 || r.n != 0 {
		t.Fatalf("growing reset: len %d n %d", len(r.buf), r.n)
	}
}
