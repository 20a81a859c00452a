// Package resource models the physical resources whose transient
// saturation produces millibottlenecks: a multi-core CPU whose progress
// can be frozen by stall windows, a disk with a finite write rate, and a
// page cache whose dirty pages are flushed by a periodic writeback
// daemon (the paper's pdflush).
package resource

import (
	"millibalance/internal/sim"
)

// CPU models a multi-core processor executing fixed-demand bursts in
// virtual time. At most Cores bursts run concurrently; excess submissions
// queue FIFO. A stall window (Stall) freezes the progress of every
// running burst — the mechanism by which a dirty-page flush or another
// millibottleneck suspends foreground request processing — and counts all
// cores as busy for utilization accounting, matching the transient 100%
// saturation the paper measures.
type CPU struct {
	eng   *sim.Engine
	cores int

	running []*burst // executing bursts, in start order
	runq    sim.FIFO[*burst]
	free    sim.FreeList[burst]

	stallUntil sim.Time
	stallTimer sim.Timer

	// Busy-core integral for utilization accounting.
	busyIntegral sim.Time
	lastAccount  sim.Time
}

// burst is one submitted burst from Submit to completion. Records are
// owned by their CPU and recycled through its free list once the
// completion event has fired, so a steady stream of bursts allocates
// nothing; fire is the completion callback, bound once per record.
type burst struct {
	cpu    *CPU
	demand sim.Time
	done   func()
	// traced, when set, replaces done and additionally receives the
	// run-queue wait and the stall-frozen share of the burst's wall
	// time. at is the submission time (only stamped for traced bursts).
	traced   func(queued, frozen sim.Time)
	at       sim.Time
	runStart sim.Time
	tm       sim.Timer
	fire     func()
}

// NewCPU returns a CPU with the given core count (minimum one) attached
// to the engine.
func NewCPU(eng *sim.Engine, cores int) *CPU {
	if cores < 1 {
		cores = 1
	}
	return &CPU{eng: eng, cores: cores}
}

// Cores returns the core count.
func (c *CPU) Cores() int { return c.cores }

// Running reports how many bursts are executing right now.
func (c *CPU) Running() int { return len(c.running) }

// QueueLen reports how many bursts are waiting for a core.
func (c *CPU) QueueLen() int { return c.runq.Len() }

// Stalled reports whether a stall window is currently open.
func (c *CPU) Stalled() bool { return c.eng.Now() < c.stallUntil }

// StallEnd returns the end of the current stall window (zero if none).
func (c *CPU) StallEnd() sim.Time {
	if !c.Stalled() {
		return 0
	}
	return c.stallUntil
}

// Submit schedules a burst consuming demand of un-stalled CPU time and
// calls done when it completes. A zero demand completes as soon as a
// core is free (and any stall has passed).
func (c *CPU) Submit(demand sim.Time, done func()) {
	if done == nil {
		panic("resource: CPU.Submit with nil completion")
	}
	b := c.newBurst(demand)
	b.done = done
	c.submit(b)
}

// SubmitTraced is Submit for instrumented callers: done additionally
// receives how long the burst waited in the run queue and how much of
// its wall time was frozen by stall windows (wall − queued − demand),
// so request spans can attribute CPU time and stall-frozen time
// separately.
func (c *CPU) SubmitTraced(demand sim.Time, done func(queued, frozen sim.Time)) {
	if done == nil {
		panic("resource: CPU.SubmitTraced with nil completion")
	}
	b := c.newBurst(demand)
	b.traced = done
	b.at = c.eng.Now()
	c.submit(b)
}

// newBurst takes a record from the free list, or makes one.
func (c *CPU) newBurst(demand sim.Time) *burst {
	b := c.free.Get()
	if b == nil {
		b = &burst{cpu: c}
		b.fire = b.complete
	}
	if demand < 0 {
		demand = 0
	}
	b.demand = demand
	return b
}

func (c *CPU) submit(b *burst) {
	if len(c.running) >= c.cores {
		c.runq.Push(b)
		return
	}
	c.start(b)
}

func (c *CPU) start(b *burst) {
	c.account()
	// The finish time bakes in whatever stall window is pending now;
	// stalls that open later extend the timer via Stall.
	b.runStart = c.eng.Now()
	b.tm = c.eng.Schedule(b.demand+c.pendingStall(), b.fire)
	c.running = append(c.running, b)
}

// complete is a burst's completion event: it frees the core, starts the
// next queued burst, retires the record and then runs the caller's
// completion.
func (b *burst) complete() {
	c := b.cpu
	c.account()
	for i, r := range c.running {
		if r == b {
			last := len(c.running) - 1
			c.running[i] = c.running[last]
			c.running[last] = nil
			c.running = c.running[:last]
			break
		}
	}
	if nb, ok := c.runq.Pop(); ok {
		c.start(nb)
	}
	done, traced := b.done, b.traced
	queued, frozen := b.runStart-b.at, c.eng.Now()-b.runStart-b.demand
	*b = burst{cpu: c, fire: b.fire}
	c.free.Put(b)
	if traced != nil {
		if frozen < 0 {
			frozen = 0
		}
		traced(queued, frozen)
		return
	}
	done()
}

// pendingStall returns how much of the current stall window remains.
func (c *CPU) pendingStall() sim.Time {
	if rem := c.stallUntil - c.eng.Now(); rem > 0 {
		return rem
	}
	return 0
}

// Stall freezes all burst progress for d. Overlapping stalls accumulate:
// a second call extends the window by its full duration, modelling
// serialized flushes against one disk. The completions of all running
// bursts are pushed out by d; since every running burst loses exactly the
// same span of time, delaying the completion events is equivalent to
// tracking per-burst progress.
func (c *CPU) Stall(d sim.Time) {
	if d <= 0 {
		return
	}
	c.account()
	now := c.eng.Now()
	if c.stallUntil < now {
		c.stallUntil = now
	}
	c.stallUntil += d
	for _, b := range c.running {
		c.eng.Reschedule(b.tm, b.tm.When()-now+d)
	}
	// Re-arm the bookkeeping event that closes the busy-integral at the
	// end of the stall window.
	c.eng.Stop(c.stallTimer)
	c.stallTimer = c.eng.At(c.stallUntil, func() {
		c.account()
		c.stallTimer = sim.Timer{}
	})
}

// account integrates busy-core time up to now.
func (c *CPU) account() {
	now := c.eng.Now()
	if now <= c.lastAccount {
		return
	}
	span := now - c.lastAccount
	// During a stall every core is pinned (iowait in the paper's
	// measurements), so the part of the span overlapping the stall
	// counts as fully busy; the rest counts the running bursts.
	stallSpan := sim.Time(0)
	if c.stallUntil > c.lastAccount {
		stallSpan = c.stallUntil - c.lastAccount
		if stallSpan > span {
			stallSpan = span
		}
	}
	normalSpan := span - stallSpan
	c.busyIntegral += stallSpan*sim.Time(c.cores) + normalSpan*sim.Time(len(c.running))
	c.lastAccount = now
}

// BusyCoreTime returns the cumulative busy core-time integral up to the
// current virtual time. Utilization over an interval is the difference
// of two readings divided by (interval × Cores).
func (c *CPU) BusyCoreTime() sim.Time {
	c.account()
	return c.busyIntegral
}

// BusyCores returns the instantaneous busy-core count; during a stall it
// is the full core count.
func (c *CPU) BusyCores() int {
	if c.Stalled() {
		return c.cores
	}
	return len(c.running)
}
