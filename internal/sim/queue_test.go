package sim

import (
	"testing"
	"testing/quick"
)

func TestFIFOEmpty(t *testing.T) {
	var q FIFO[int]
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty returned ok")
	}
}

func TestFIFOOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = %d,%v want %d", v, ok, i)
		}
	}
}

func TestFIFOInterleaved(t *testing.T) {
	var q FIFO[int]
	next := 0
	pushed := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(pushed)
			pushed++
		}
		for i := 0; i < 2; i++ {
			v, ok := q.Pop()
			if !ok || v != next {
				t.Fatalf("round %d: Pop = %d,%v want %d", round, v, ok, next)
			}
			next++
		}
	}
	if q.Len() != pushed-next {
		t.Fatalf("Len = %d, want %d", q.Len(), pushed-next)
	}
}

func TestFIFOPeekDoesNotRemove(t *testing.T) {
	var q FIFO[string]
	q.Push("a")
	q.Push("b")
	if v, _ := q.Peek(); v != "a" {
		t.Fatalf("Peek = %q", v)
	}
	if q.Len() != 2 {
		t.Fatalf("Peek changed Len to %d", q.Len())
	}
}

func TestFIFOClear(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d", q.Len())
	}
	q.Push(42)
	if v, ok := q.Pop(); !ok || v != 42 {
		t.Fatalf("Pop after Clear = %d,%v", v, ok)
	}
}

// Property: a FIFO behaves exactly like a slice used as a queue under any
// interleaving of pushes and pops.
func TestQuickFIFOMatchesSlice(t *testing.T) {
	f := func(ops []int16) bool {
		var q FIFO[int16]
		var ref []int16
		for _, op := range ops {
			if op >= 0 {
				q.Push(op)
				ref = append(ref, op)
			} else {
				v, ok := q.Pop()
				if len(ref) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || v != ref[0] {
					return false
				}
				ref = ref[1:]
			}
		}
		return q.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolTryAcquire(t *testing.T) {
	p := NewPool(2)
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("TryAcquire failed with free tokens")
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded with no free tokens")
	}
	if p.InUse() != 2 || p.Free() != 0 {
		t.Fatalf("InUse=%d Free=%d", p.InUse(), p.Free())
	}
}

func TestPoolAcquireQueuesWaiter(t *testing.T) {
	p := NewPool(1)
	got := []string{}
	p.Acquire(func() { got = append(got, "first") })
	p.Acquire(func() { got = append(got, "second") })
	if len(got) != 1 || p.Waiting() != 1 {
		t.Fatalf("got=%v waiting=%d", got, p.Waiting())
	}
	p.Release()
	if len(got) != 2 || got[1] != "second" {
		t.Fatalf("waiter not granted on release: %v", got)
	}
	if p.InUse() != 1 {
		t.Fatalf("token not passed through: InUse=%d", p.InUse())
	}
}

func TestPoolReleaseWithoutWaiters(t *testing.T) {
	p := NewPool(1)
	p.Acquire(func() {})
	p.Release()
	if p.InUse() != 0 {
		t.Fatalf("InUse = %d after release", p.InUse())
	}
}

func TestPoolReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without token did not panic")
		}
	}()
	NewPool(1).Release()
}

func TestPoolFIFOGrantOrder(t *testing.T) {
	p := NewPool(1)
	p.Acquire(func() {})
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		p.Acquire(func() { got = append(got, i) })
	}
	for i := 0; i < 5; i++ {
		p.Release()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("grant order = %v", got)
		}
	}
}

func TestPoolResizeGrow(t *testing.T) {
	p := NewPool(1)
	p.Acquire(func() {})
	granted := 0
	p.Acquire(func() { granted++ })
	p.Acquire(func() { granted++ })
	p.Resize(3)
	if granted != 2 {
		t.Fatalf("Resize granted %d waiters, want 2", granted)
	}
	if p.InUse() != 3 {
		t.Fatalf("InUse = %d, want 3", p.InUse())
	}
}

func TestPoolResizeShrinkDrains(t *testing.T) {
	p := NewPool(3)
	for i := 0; i < 3; i++ {
		p.Acquire(func() {})
	}
	p.Resize(1)
	if p.Free() != -2 {
		t.Fatalf("Free = %d, want -2 while draining", p.Free())
	}
	p.Release()
	p.Release()
	if p.Free() != 0 {
		t.Fatalf("Free = %d after drain, want 0", p.Free())
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded while over capacity")
	}
}

func TestPoolNegativeCapacity(t *testing.T) {
	p := NewPool(-5)
	if p.Cap() != 0 {
		t.Fatalf("Cap = %d, want 0", p.Cap())
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded on zero-capacity pool")
	}
}

// Property: tokens are conserved — after any valid sequence of operations,
// inUse is within [0, max(cap, peak)] and waiters only exist when no token
// is free.
func TestQuickPoolConservation(t *testing.T) {
	f := func(ops []uint8, capacity uint8) bool {
		c := int(capacity%8) + 1
		p := NewPool(c)
		held := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if p.TryAcquire() {
					held++
				}
			case 1:
				granted := false
				p.Acquire(func() { granted = true })
				if granted {
					held++
				}
			case 2:
				if held > 0 {
					wasWaiting := p.Waiting()
					p.Release()
					if wasWaiting == 0 {
						held--
					}
				}
			}
			if p.InUse() < 0 || p.InUse() > c {
				return false
			}
			if p.Waiting() > 0 && p.InUse() < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListLIFO(t *testing.T) {
	var f FreeList[int]
	if f.Get() != nil || f.Len() != 0 {
		t.Fatal("zero free list is not empty")
	}
	a, b := new(int), new(int)
	f.Put(a)
	f.Put(b)
	if f.Len() != 2 {
		t.Fatalf("Len = %d, want 2", f.Len())
	}
	if f.Get() != b || f.Get() != a {
		t.Fatal("free list does not hand back the most recently retired record first")
	}
	if f.Get() != nil || f.Len() != 0 {
		t.Fatal("drained free list is not empty")
	}
}
