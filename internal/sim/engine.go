// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, a cancellable timer heap, a seeded random source, and
// small event-driven concurrency primitives (token pools and FIFO queues)
// used by the n-tier server models.
//
// The engine is single-threaded by design. All simulated activity is
// expressed as callbacks scheduled at virtual times; two events scheduled
// for the same instant fire in schedule order, so a run with a fixed seed
// is exactly reproducible. Distinct engines share no state, so many
// engines may run concurrently on separate goroutines.
package sim

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// Time is a virtual timestamp measured from the start of the simulation.
// It reuses time.Duration so call sites can write 50*time.Millisecond.
type Time = time.Duration

// timerNode is one heap entry. Nodes are owned by the engine and recycled
// through a per-engine free list once fired or stopped: a paper-scale run
// schedules millions of events but keeps only a few hundred pending, so
// recycling removes nearly every per-event allocation. The generation
// counter invalidates external handles when a node is retired.
type timerNode struct {
	at    Time
	seq   uint64
	index int // position in the heap, -1 once fired or stopped
	gen   uint64
	fn    func()
}

// Timer is a generation-checked handle to a scheduled event, returned by
// Engine.Schedule and Engine.At. The zero value is an empty handle:
// Stopped reports true and Stop/Reschedule report false. Handles are
// small values, safe to copy and compare.
//
// Once a timer fires or is stopped, its node returns to the engine's
// free list and may back a later timer; the generation check makes every
// outstanding handle to the retired timer permanently dead, so holding a
// stale handle can never stop, move, or observe the recycled node's new
// occupant.
type Timer struct {
	n   *timerNode
	gen uint64
}

// When reports the virtual time the timer is set to fire at, or zero if
// the timer already fired or was stopped.
func (t Timer) When() Time {
	if t.Stopped() {
		return 0
	}
	return t.n.at
}

// Stopped reports whether the timer has fired or been stopped (true for
// the zero handle).
func (t Timer) Stopped() bool { return t.n == nil || t.gen != t.n.gen || t.n.index == -1 }

// Engine is a discrete-event simulator. The zero value is not ready for
// use; construct one with NewEngine.
type Engine struct {
	now    Time
	heap   []*timerNode
	free   FreeList[timerNode]
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	halted bool
}

// NewEngine returns an engine whose clock starts at zero and whose random
// source is a PCG seeded with the two given words. The same seeds replay
// the same run.
func NewEngine(seed1, seed2 uint64) *Engine {
	return &Engine{rng: rand.New(rand.NewPCG(seed1, seed2))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many timers are currently scheduled.
func (e *Engine) Pending() int { return len(e.heap) }

// Schedule arranges for fn to run after delay of virtual time. A negative
// delay is treated as zero. The returned timer may be stopped before it
// fires.
func (e *Engine) Schedule(delay Time, fn func()) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At arranges for fn to run at virtual time t. Times in the past are
// clamped to now.
func (e *Engine) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil function")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	n := e.alloc()
	n.at = t
	n.seq = e.seq
	n.fn = fn
	e.push(n)
	return Timer{n: n, gen: n.gen}
}

// Stop cancels a scheduled timer. It reports whether the timer was still
// pending (false if it had already fired or been stopped, and false for
// the zero handle).
func (e *Engine) Stop(t Timer) bool {
	if t.Stopped() {
		return false
	}
	e.remove(t.n.index)
	e.recycle(t.n)
	return true
}

// Reschedule moves a pending timer to fire at now+delay. It reports
// whether the timer was still pending and thus moved.
func (e *Engine) Reschedule(t Timer, delay Time) bool {
	if t.Stopped() {
		return false
	}
	if delay < 0 {
		delay = 0
	}
	n := t.n
	n.at = e.now + delay
	e.seq++
	n.seq = e.seq
	if !e.down(n.index) {
		e.up(n.index)
	}
	return true
}

// Step dispatches the next pending event, advancing the clock to its
// timestamp. It reports false when no events remain or the engine has
// been halted.
func (e *Engine) Step() bool {
	if e.halted || len(e.heap) == 0 {
		return false
	}
	n := e.popMin()
	e.now = n.at
	fn := n.fn
	e.recycle(n)
	e.fired++
	fn()
	return true
}

// Run dispatches events until the clock would pass until, then sets the
// clock to exactly until. Events scheduled at until itself are dispatched.
func (e *Engine) Run(until Time) {
	for !e.halted && len(e.heap) > 0 && e.heap[0].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// RunAll dispatches events until none remain or maxEvents have fired.
// It returns an error if the event budget is exhausted, which usually
// indicates a self-rescheduling loop that was not shut down.
func (e *Engine) RunAll(maxEvents uint64) error {
	start := e.fired
	for e.Step() {
		if e.fired-start >= maxEvents {
			return fmt.Errorf("sim: event budget of %d exhausted at t=%v with %d timers pending",
				maxEvents, e.now, len(e.heap))
		}
	}
	return nil
}

// Halt stops the engine: Step and Run become no-ops. Pending timers are
// kept so callers can inspect them.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt has been called.
func (e *Engine) Halted() bool { return e.halted }

// alloc pops a retired node from the free list, or makes a new one. The
// free-list order is deterministic (LIFO), preserving exact replay.
func (e *Engine) alloc() *timerNode {
	if n := e.free.Get(); n != nil {
		return n
	}
	return &timerNode{}
}

// recycle retires a fired or stopped node: bumping the generation kills
// every outstanding handle before the node re-enters circulation.
func (e *Engine) recycle(n *timerNode) {
	n.fn = nil
	n.index = -1
	n.gen++
	e.free.Put(n)
}

// The heap below is a hand-inlined binary min-heap ordered by (at, seq),
// so same-instant events fire in schedule order. Inlining (instead of
// container/heap) removes the interface dispatch on every sift step in
// the engine's hottest loop.

func nodeLess(a, b *timerNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(n *timerNode) {
	n.index = len(e.heap)
	e.heap = append(e.heap, n)
	e.up(n.index)
}

func (e *Engine) popMin() *timerNode {
	n := e.heap[0]
	last := len(e.heap) - 1
	if last > 0 {
		e.heap[0] = e.heap[last]
		e.heap[0].index = 0
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if last > 1 {
		e.down(0)
	}
	n.index = -1
	return n
}

// remove deletes the node at heap index i.
func (e *Engine) remove(i int) {
	last := len(e.heap) - 1
	if i != last {
		e.heap[i], e.heap[last] = e.heap[last], e.heap[i]
		e.heap[i].index = i
	}
	e.heap[last] = nil
	e.heap = e.heap[:last]
	if i != last {
		if !e.down(i) {
			e.up(i)
		}
	}
}

func (e *Engine) up(i int) {
	n := e.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := e.heap[parent]
		if !nodeLess(n, p) {
			break
		}
		e.heap[i] = p
		p.index = i
		i = parent
	}
	e.heap[i] = n
	n.index = i
}

// down sifts the node at i toward the leaves and reports whether it moved.
func (e *Engine) down(i0 int) bool {
	n := e.heap[i0]
	i := i0
	size := len(e.heap)
	for {
		left := 2*i + 1
		if left >= size {
			break
		}
		best := left
		if right := left + 1; right < size && nodeLess(e.heap[right], e.heap[left]) {
			best = right
		}
		c := e.heap[best]
		if !nodeLess(c, n) {
			break
		}
		e.heap[i] = c
		c.index = i
		i = best
	}
	e.heap[i] = n
	n.index = i
	return i > i0
}
