package pipeline

// ring is a fixed-capacity FIFO over a reused backing array, addressed by
// age (0 = oldest). The ROB, the load and store queues and the fetch
// buffer are rings, so the steady-state cycle loop allocates nothing. n is
// the occupancy; a squash truncates the youngest entries by lowering it.
// Popping or truncating leaves the vacated slots' contents in place until
// a later push reuses them.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// reset empties the ring with room for capacity entries, reusing (and
// zeroing) the backing array when it is large enough.
func (r *ring[T]) reset(capacity int) {
	r.buf = zeroed(r.buf, capacity)
	r.head, r.n = 0, 0
}

// slot maps age i to its index in buf: the one place the wrap happens.
func (r *ring[T]) slot(i int) int {
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return j
}

// at returns the entry of age i. The pointer stays valid until a push
// reuses its slot.
func (r *ring[T]) at(i int) *T { return &r.buf[r.slot(i)] }

// push claims and zeroes the slot behind the youngest entry. The caller
// must have checked n < capacity.
func (r *ring[T]) push() *T {
	p := r.at(r.n)
	var zero T
	*p = zero
	r.n++
	return p
}

// popHead releases the oldest entry; it stays readable until a push
// reuses its slot.
func (r *ring[T]) popHead() {
	r.head = r.slot(1)
	r.n--
}

// from returns the entries of age i..n-1, oldest first, as the ring's up
// to two contiguous segments (b is empty unless the range wraps). Ranging
// over a then b visits exactly at(i), ..., at(n-1).
func (r *ring[T]) from(i int) (a, b []T) {
	if i >= r.n {
		return nil, nil
	}
	j, last := r.slot(i), r.slot(r.n-1)
	if j <= last {
		return r.buf[j : last+1], nil
	}
	return r.buf[j:], r.buf[:last+1]
}
