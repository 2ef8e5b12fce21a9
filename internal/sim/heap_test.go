package sim

import "container/heap"

// The binary heap is the reference queue the ladder is held against: its
// correctness is evident from container/heap, so TestKernelDifferential
// and FuzzKernelOps require the ladder to reproduce its fire sequence
// exactly.

// eventQueue is a min-heap ordered by (at, seq). It tracks each queued
// event's slot in a position map of its own, which eager cancellation
// (heap.Remove) needs; the kernel's event storage carries no index.
type eventQueue struct {
	evs []*event
	pos map[*event]int
}

func (q *eventQueue) Len() int { return len(q.evs) }

// Less spells the order out independently of cmpEvent, which the ladder
// sorts with, so a comparator bug cannot hide in both queues at once.
func (q *eventQueue) Less(i, j int) bool {
	a, b := q.evs[i], q.evs[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) Swap(i, j int) {
	q.evs[i], q.evs[j] = q.evs[j], q.evs[i]
	q.pos[q.evs[i]] = i
	q.pos[q.evs[j]] = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	q.pos[ev] = len(q.evs)
	ev.state = evQueued
	q.evs = append(q.evs, ev)
}

func (q *eventQueue) Pop() any {
	n := len(q.evs)
	ev := q.evs[n-1]
	q.evs[n-1] = nil
	q.evs = q.evs[:n-1]
	delete(q.pos, ev)
	return ev
}

// heapKernel adapts the binary heap to the kernel interface. Cancellation
// is eager: the event leaves the heap and its storage is released at once.
type heapKernel struct {
	s *Scheduler
	q eventQueue
}

// newHeapScheduler returns a scheduler driven by the reference heap.
func newHeapScheduler() *Scheduler {
	s := &Scheduler{}
	s.k = &heapKernel{s: s, q: eventQueue{pos: map[*event]int{}}}
	return s
}

func (k *heapKernel) len() int { return k.q.Len() }

func (k *heapKernel) push(ev *event) { heap.Push(&k.q, ev) }

func (k *heapKernel) peek() *event {
	if k.q.Len() == 0 {
		return nil
	}
	return k.q.evs[0]
}

func (k *heapKernel) pop() *event {
	if k.q.Len() == 0 {
		return nil
	}
	return heap.Pop(&k.q).(*event)
}

func (k *heapKernel) cancel(ev *event) bool {
	heap.Remove(&k.q, k.q.pos[ev])
	k.s.release(ev)
	return true
}

// each visits every pending event; the heap holds no cancelled storage.
func (k *heapKernel) each(fn func(*event)) {
	for _, ev := range k.q.evs {
		fn(ev)
	}
}
