// Package netmodel models the slice of TCP behaviour that matters for the
// paper's very-long-response-time (VLRT) mechanics: a bounded listen
// backlog that drops connection attempts when full, client-side
// retransmission of dropped attempts on a fixed schedule (the source of
// the paper's 1 s / 2 s / 3 s response-time clusters, Fig. 4), and a
// fixed-latency LAN link.
package netmodel

import (
	"time"

	"millibalance/internal/obs"
	"millibalance/internal/sim"
)

// RetransmitSchedule lists the delays between successive connection
// attempts after drops. When the schedule is exhausted the request fails.
type RetransmitSchedule []sim.Time

// DefaultRetransmitSchedule mirrors the retransmission timing observed in
// the paper's environment: three retries spaced one second apart, which
// stamps dropped requests into response-time clusters at ≈1 s, 2 s, 3 s.
func DefaultRetransmitSchedule() RetransmitSchedule {
	return RetransmitSchedule{time.Second, time.Second, time.Second}
}

// Listener is a bounded accept queue (listen backlog). Connections that
// arrive while the backlog is full are dropped — the paper's
// "Cross-Tier Queue Overflow".
type Listener struct {
	backlog int
	queue   sim.FIFO[func()]
	drops   uint64
	offered uint64
}

// NewListener returns a listener with the given backlog capacity.
// A negative capacity is treated as zero (every queued offer drops).
func NewListener(backlog int) *Listener {
	if backlog < 0 {
		backlog = 0
	}
	return &Listener{backlog: backlog}
}

// Backlog returns the queue capacity.
func (l *Listener) Backlog() int { return l.backlog }

// Len reports how many connections are waiting to be accepted.
func (l *Listener) Len() int { return l.queue.Len() }

// Drops reports how many offers have been dropped.
func (l *Listener) Drops() uint64 { return l.drops }

// Offered reports how many offers have been made.
func (l *Listener) Offered() uint64 { return l.offered }

// Offer enqueues accept to run when the connection is accepted. It
// reports false — and drops the connection — when the backlog is full.
func (l *Listener) Offer(accept func()) bool {
	l.offered++
	if l.queue.Len() >= l.backlog {
		l.drops++
		return false
	}
	l.queue.Push(accept)
	return true
}

// Accept dequeues and runs the oldest waiting connection, reporting
// whether one was waiting.
func (l *Listener) Accept() bool {
	accept, ok := l.queue.Pop()
	if !ok {
		return false
	}
	accept()
	return true
}

// Retransmitter retries dropped connection attempts on a schedule. T
// is the connection it carries (the simulator's is a client request).
// The attempt and give-up callbacks are fixed at construction and
// receive the connection, and a dropped connection's retry state lives
// in a record recycled through the retransmitter's free list once the
// connection is admitted or given up, so sends allocate nothing in
// steady state.
type Retransmitter[T any] struct {
	eng      *sim.Engine
	schedule RetransmitSchedule
	attempt  func(T) bool
	giveUp   func(T)
	free     sim.FreeList[retry[T]]

	retransmits uint64
	failures    uint64
}

// retry is one dropped connection waiting out its retransmission
// delay; fire is its wake-up, bound once per record.
type retry[T any] struct {
	r     *Retransmitter[T]
	conn  T
	sp    *obs.Span
	tries int
	fire  func()
}

// NewRetransmitter returns a retransmitter using the given schedule; a
// nil schedule uses the default. attempt reports whether a connection
// attempt was admitted; giveUp (which may be nil) runs when a
// connection's schedule is exhausted.
func NewRetransmitter[T any](eng *sim.Engine, schedule RetransmitSchedule, attempt func(T) bool, giveUp func(T)) *Retransmitter[T] {
	if attempt == nil {
		panic("netmodel: NewRetransmitter with nil attempt")
	}
	if schedule == nil {
		schedule = DefaultRetransmitSchedule()
	}
	return &Retransmitter[T]{eng: eng, schedule: schedule, attempt: attempt, giveUp: giveUp}
}

// Retransmits reports how many retry attempts have been scheduled.
func (r *Retransmitter[T]) Retransmits() uint64 { return r.retransmits }

// Failures reports how many sends exhausted the schedule and failed.
func (r *Retransmitter[T]) Failures() uint64 { return r.failures }

// Send attempts conn now and, on each drop, again after the next
// schedule delay; when the schedule is exhausted it gives up. sp (which
// may be nil) records the retransmit-wait stage from the first drop
// until the attempt that is finally admitted or the give-up — the wait
// that stamps VLRT requests into the 1 s / 2 s / 3 s clusters.
func (r *Retransmitter[T]) Send(conn T, sp *obs.Span) {
	r.try(conn, sp, 0, nil)
}

// try runs attempt number tries+1; rec is the connection's retry
// record, nil until its first drop.
func (r *Retransmitter[T]) try(conn T, sp *obs.Span, tries int, rec *retry[T]) {
	if r.attempt(conn) {
		sp.Exit(obs.StageRetransmitWait, r.eng.Now())
		r.retire(rec)
		return
	}
	if tries >= len(r.schedule) {
		r.failures++
		sp.Exit(obs.StageRetransmitWait, r.eng.Now())
		r.retire(rec)
		if r.giveUp != nil {
			r.giveUp(conn)
		}
		return
	}
	r.retransmits++
	sp.Enter(obs.StageRetransmitWait, r.eng.Now())
	if rec == nil {
		rec = r.newRetry()
		rec.conn, rec.sp = conn, sp
	}
	rec.tries = tries + 1
	r.eng.Schedule(r.schedule[tries], rec.fire)
}

func (r *Retransmitter[T]) newRetry() *retry[T] {
	if rec := r.free.Get(); rec != nil {
		return rec
	}
	rec := &retry[T]{r: r}
	rec.fire = rec.again
	return rec
}

// retire returns a finished record (nil for a connection never
// dropped) to the free list.
func (r *Retransmitter[T]) retire(rec *retry[T]) {
	if rec == nil {
		return
	}
	var zero T
	rec.conn, rec.sp = zero, nil
	r.free.Put(rec)
}

func (rec *retry[T]) again() { rec.r.try(rec.conn, rec.sp, rec.tries, rec) }

// Link is a fixed-latency network hop. Bandwidth is not modelled; the
// paper's gigabit LAN never saturates.
type Link struct {
	eng     *sim.Engine
	latency sim.Time
}

// NewLink returns a link with the given one-way latency (clamped at
// zero).
func NewLink(eng *sim.Engine, latency sim.Time) *Link {
	if latency < 0 {
		latency = 0
	}
	return &Link{eng: eng, latency: latency}
}

// Latency returns the one-way latency.
func (l *Link) Latency() sim.Time { return l.latency }

// Deliver runs fn after one link traversal.
func (l *Link) Deliver(fn func()) {
	if l.latency == 0 {
		fn()
		return
	}
	l.eng.Schedule(l.latency, fn)
}
