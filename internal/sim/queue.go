package sim

// waiterQueue is one FIFO ring of a resource's wait queues. Popping moves a
// head index instead of copying the tail down, zeroes the vacated slot so
// completed callbacks are not retained, and reuses the backing array, so
// sustained queueing churns no memory at all once the ring has grown to the
// peak depth. The backing length is always zero or a power of two, so
// indexes wrap with a mask.
type waiterQueue struct {
	buf  []waiter
	head int
	size int
}

// Len returns the number of queued elements.
func (q *waiterQueue) Len() int { return q.size }

// Cap returns the backing array length (tests assert it stays bounded).
func (q *waiterQueue) Cap() int { return len(q.buf) }

// Push appends an element at the tail, growing the ring when full.
func (q *waiterQueue) Push(v waiter) {
	if q.size == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.size)&(len(q.buf)-1)] = v
	q.size++
}

// Pop removes and returns the head element. Popping an empty queue panics
// (callers check Len first).
func (q *waiterQueue) Pop() waiter {
	v := q.buf[q.head]
	q.buf[q.head] = waiter{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.size--
	return v
}

// Front returns the head element without removing it. Calling Front on an
// empty queue panics.
func (q *waiterQueue) Front() *waiter {
	if q.size == 0 {
		panic("sim: Front on empty queue")
	}
	return &q.buf[q.head]
}

// reset empties the ring for reuse, zeroing its slots so callback
// references are not retained, while keeping the backing array at its grown
// capacity.
func (q *waiterQueue) reset() {
	clear(q.buf)
	q.head, q.size = 0, 0
}

// grow doubles the ring, unwrapping the elements into index order.
func (q *waiterQueue) grow() {
	n := len(q.buf) * 2
	if n == 0 {
		n = 8
	}
	buf := make([]waiter, n)
	for i := 0; i < q.size; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}
