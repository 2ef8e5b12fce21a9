package sim

import "container/heap"

// The binary heap is the reference queue the ladder is held against: its
// correctness is evident from container/heap, so TestKernelDifferential
// and FuzzKernelOps require the ladder to reproduce its fire sequence
// exactly.

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

// Less spells the order out independently of cmpEvent, which the ladder
// sorts with, so a comparator bug cannot hide in both queues at once.
func (q eventQueue) Less(i, j int) bool {
	a, b := q[i], q[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
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
	s.k = &heapKernel{s: s}
	return s
}

func (k *heapKernel) len() int { return len(k.q) }

func (k *heapKernel) push(ev *event) { heap.Push(&k.q, ev) }

func (k *heapKernel) peek() *event {
	if len(k.q) == 0 {
		return nil
	}
	return k.q[0]
}

func (k *heapKernel) pop() *event {
	if len(k.q) == 0 {
		return nil
	}
	return heap.Pop(&k.q).(*event)
}

func (k *heapKernel) cancel(ev *event) bool {
	heap.Remove(&k.q, ev.index)
	k.s.release(ev)
	return true
}

// each visits every pending event; the heap holds no cancelled storage.
func (k *heapKernel) each(fn func(*event)) {
	for _, ev := range k.q {
		fn(ev)
	}
}
