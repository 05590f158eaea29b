package npu

// fifo is a first-in first-out queue over a ring buffer. The buffer is
// reused as the queue drains and only grows when the queue outgrows it, so
// pushes and pops allocate nothing once a run reaches its peak occupancy.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference a handler element holds
	if q.head++; q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return v
}

// grow doubles a full buffer, unrolling the ring so head restarts at 0.
func (q *fifo[T]) grow() {
	buf := make([]T, max(8, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
