package sim

// fifo is a FIFO ring buffer. Popping moves a head index instead of copying
// the tail down, zeroes the vacated slot so completed callbacks are not
// retained, and reuses the backing array, so sustained queueing churns no
// memory at all once the buffer has grown to the peak depth. The backing
// length is always zero or a power of two, so indexes wrap with a mask.
type fifo[T any] struct {
	buf  []T
	head int
	size int
}

// waiterQueue is one scheduler wait queue.
type waiterQueue = fifo[Waiter]

// Len returns the number of queued elements.
func (q *fifo[T]) Len() int { return q.size }

// Cap returns the backing array length (tests assert it stays bounded).
func (q *fifo[T]) Cap() int { return len(q.buf) }

// Push appends an element at the tail, growing the ring when full.
func (q *fifo[T]) Push(v T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
}

// Pop removes and returns the head element. Popping an empty queue panics
// (callers check Len first).
func (q *fifo[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return v
}

// Front returns the head element without removing it. Calling Front on an
// empty queue panics.
func (q *fifo[T]) Front() *T {
	if q.size == 0 {
		panic("sim: Front on empty queue")
	}
	return &q.buf[q.head]
}

// reset empties the ring for reuse, zeroing the occupied slots so callback
// references are not retained, while keeping the backing array at its grown
// capacity.
func (q *fifo[T]) reset() {
	var zero T
	for i := 0; i < q.size; i++ {
		q.buf[(q.head+i)&(len(q.buf)-1)] = zero
	}
	q.head, q.size = 0, 0
}

// grow doubles the ring, unwrapping the elements into index order.
func (q *fifo[T]) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]T, n)
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
