package sim

// FIFO is an unbounded first-in first-out queue backed by a growable ring
// buffer. The zero value is an empty queue ready for use.
type FIFO[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v to the back of the queue.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

// Pop removes and returns the front element. The second result is false
// when the queue is empty.
func (q *FIFO[T]) Pop() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// Peek returns the front element without removing it.
func (q *FIFO[T]) Peek() (T, bool) {
	var zero T
	if q.n == 0 {
		return zero, false
	}
	return q.buf[q.head], true
}

// Clear drops all queued elements.
func (q *FIFO[T]) Clear() {
	var zero T
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = zero
	}
	q.head = 0
	q.n = 0
}

func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// Pool is an event-driven counting semaphore: a fixed number of tokens
// with a FIFO of waiters that are granted tokens as they free. It models
// thread pools and connection pools in virtual time. The zero value has
// zero capacity; construct with NewPool.
type Pool struct {
	cap     int
	inUse   int
	waiters FIFO[func()]
}

// NewPool returns a pool with the given token capacity.
func NewPool(capacity int) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	return &Pool{cap: capacity}
}

// Cap returns the pool capacity.
func (p *Pool) Cap() int { return p.cap }

// InUse reports how many tokens are currently held.
func (p *Pool) InUse() int { return p.inUse }

// Free reports how many tokens are available right now.
func (p *Pool) Free() int { return p.cap - p.inUse }

// Waiting reports how many acquisitions are queued.
func (p *Pool) Waiting() int { return p.waiters.Len() }

// TryAcquire takes a token if one is free, reporting whether it did.
func (p *Pool) TryAcquire() bool {
	if p.inUse < p.cap {
		p.inUse++
		return true
	}
	return false
}

// Acquire takes a token, calling grant immediately if one is free and
// otherwise queueing grant to run when a token is released. Grant runs
// with the token already held.
func (p *Pool) Acquire(grant func()) {
	if p.TryAcquire() {
		grant()
		return
	}
	p.waiters.Push(grant)
}

// Release returns a token. If waiters are queued, the front waiter is
// granted the token synchronously.
func (p *Pool) Release() {
	if p.inUse <= 0 {
		panic("sim: Pool.Release without a held token")
	}
	if grant, ok := p.waiters.Pop(); ok {
		// Token passes directly to the waiter; inUse is unchanged.
		grant()
		return
	}
	p.inUse--
}

// Resize changes the pool capacity. Growing the pool grants tokens to
// queued waiters; shrinking lets in-use tokens drain naturally.
func (p *Pool) Resize(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	p.cap = capacity
	for p.inUse < p.cap {
		grant, ok := p.waiters.Pop()
		if !ok {
			return
		}
		p.inUse++
		grant()
	}
}

// FreeList is a LIFO stack of retired records awaiting reuse. The
// engine's timer nodes and the request path's per-owner records recycle
// through it instead of a sync.Pool: reuse order stays deterministic,
// and no record is shared between engines or dropped by a garbage
// collection. The zero value is an empty list ready for use.
type FreeList[T any] struct {
	items []*T
}

// Get pops the most recently retired record, or returns nil when the
// list is empty.
func (f *FreeList[T]) Get() *T {
	k := len(f.items) - 1
	if k < 0 {
		return nil
	}
	x := f.items[k]
	f.items[k] = nil
	f.items = f.items[:k]
	return x
}

// Put retires x for reuse.
func (f *FreeList[T]) Put(x *T) { f.items = append(f.items, x) }

// Len reports how many retired records are waiting.
func (f *FreeList[T]) Len() int { return len(f.items) }
