package sim

import "slices"

// Checkpoint surface: the kernel's dynamic state, minus the callbacks.
// Event callbacks are Go closures and cannot be serialized; what CAN be
// captured exactly is every pending event's position in the strict
// (at, seq) total order plus the clock and sequence counters. A restored
// run re-creates the callbacks by deterministically replaying to the
// checkpoint time, then verifies the replayed kernel reproduces this
// state byte for byte (see internal/scenario and internal/checkpoint).

// EventStamp is the serializable identity of one pending event in the
// kernel's total order.
type EventStamp struct {
	At  Time
	Seq uint64
}

// KernelState is the scheduler's complete serializable state: clock,
// counters, and the (at, seq) stamp of every live pending event in total
// order.
type KernelState struct {
	Now       Time
	Seq       uint64
	Fired     uint64
	HighWater int
	Pending   []EventStamp
}

// SnapshotState captures the scheduler's state. The scheduler is not
// perturbed: lazily-cancelled ladder events are skipped, not purged.
func (s *Scheduler) SnapshotState() KernelState {
	st := KernelState{
		Now:       s.now,
		Seq:       s.seq,
		Fired:     s.fired,
		HighWater: s.highWater,
		Pending:   make([]EventStamp, 0, s.k.len()),
	}
	s.k.each(func(ev *event) {
		st.Pending = append(st.Pending, EventStamp{At: ev.at, Seq: ev.seq})
	})
	slices.SortFunc(st.Pending, func(a, b EventStamp) int {
		if a.At != b.At {
			if a.At < b.At {
				return -1
			}
			return 1
		}
		if a.Seq != b.Seq {
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		}
		return 0
	})
	return st
}

// each visits every live pending event in unspecified order, skipping
// lazily-cancelled storage awaiting physical removal.
func (q *ladderQueue) each(fn func(*event)) {
	visit := func(evs []*event) {
		for _, ev := range evs {
			if ev != nil && ev.state != evDead {
				fn(ev)
			}
		}
	}
	visit(q.bottom[q.bot0:])
	for i := range q.rungs {
		r := &q.rungs[i]
		for j := r.cur; j < len(r.buckets); j++ {
			visit(r.buckets[j])
		}
	}
	visit(q.top)
}
