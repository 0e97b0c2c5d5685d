package sim

// Ring is a head-indexed double-ended queue of values: the per-owner
// job FIFO of the model layers (a core's run queues, a server's
// completion callbacks, a local APIC's in-flight vectors). Push and pop
// at either end are O(1). The backing array starts at 8 slots and
// doubles when full, so its length is a power of two and indices wrap
// by masking. It is never shrunk: a ring grows only to its owner's peak
// depth and is allocation-free after that. The zero value is an empty
// ring.
type Ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int
}

// Len returns the number of queued values.
func (r *Ring[T]) Len() int { return r.n }

// PushBack appends v at the back.
//
//saisvet:allocfree
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront inserts v at the front.
//
//saisvet:allocfree
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// Front returns a pointer to the front value, valid until the next
// push or pop. It panics on an empty ring.
//
//saisvet:allocfree
func (r *Ring[T]) Front() *T {
	if r.n == 0 {
		panic("sim: Front of empty ring")
	}
	return &r.buf[r.head]
}

// PopFront removes and returns the front value. The vacated slot is
// zeroed so the ring keeps no reference to a popped value. It panics on
// an empty ring.
//
//saisvet:allocfree
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("sim: PopFront of empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the backing array, unwrapping the queue to index 0.
//
//saisvet:allocfree
func (r *Ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	//lint:alloc growth to the owner's peak depth, amortized over its lifetime; steady state never reaches here
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
