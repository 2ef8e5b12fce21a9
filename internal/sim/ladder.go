package sim

import (
	"math"
	"slices"
)

// The ladder queue (Tang, Goh, Thng 2005) replaces the binary heap's
// O(log n) sift with amortized O(1) bucketed inserts. Events live in three
// tiers:
//
//   - bottom: a short (at, seq)-sorted run that pop consumes front to back;
//   - rungs: a stack of bucket arrays, finest (earliest) on top, each
//     covering a contiguous time span split into equal-width buckets;
//   - top: an unsorted overflow for events beyond the coarsest rung.
//
// When the bottom drains, the next bucket of the finest rung is sorted
// into it; an oversized bucket spawns a finer rung instead, and when every
// rung is spent the top is either swapped wholesale into the bottom (small
// tops — the steady-state path, which allocates nothing) or split into a
// fresh rung.
//
// Determinism: the kernel's (at, seq) order is strict and total, so the
// fire sequence is identical to the heap's whenever bucket membership is
// exact. Bucket boundaries are therefore always computed with the one
// expression base + width*Time(i) (lrung.boundary), and locate corrects
// the divided index against that exact predicate, so float rounding can
// never place an event across a boundary. Two invariants tie the tiers
// together: every bottom event has at <= bottomEnd, and every rung or top
// event has at >= bottomEnd.
//
// Cancellation is lazy: cancel marks the event dead and invalidates its
// handle; the storage is released back to the free list when a purge
// (pop, peek, or a bucket transfer) reaches it.
const (
	// maxBottom bounds the sorted bottom run: a transferred bucket larger
	// than this spawns a finer rung instead of being sorted wholesale, and
	// a top no larger than this is swapped straight into the bottom.
	maxBottom = 64
	// maxRungs bounds the rung stack; a bucket that is still oversized at
	// full depth is sorted directly.
	maxRungs = 8
	// maxRungBuckets caps one rung's bucket count.
	maxRungBuckets = 1 << 12
	// minSpawnSpan is the narrowest time span worth splitting into a rung;
	// tighter clusters (same-instant bursts) are sorted directly.
	minSpawnSpan Time = 1e-9
	// maxPooledBuckets caps the recycled bucket-slice pool.
	maxPooledBuckets = 1024
)

// lrung is one rung: len(buckets) equal-width time buckets covering
// [base, end], end inclusive. Bucket i spans [boundary(i), boundary(i+1)),
// except the last, whose upper bound is widened to end. Buckets below cur
// have been transferred out.
type lrung struct {
	base    Time
	width   Time
	end     Time // inclusive upper bound on member timestamps
	cur     int
	buckets [][]*event
}

// boundary is the single source of truth for bucket edges. Every
// membership decision uses this exact expression, which is what makes
// bucketing order-exact under float rounding.
func (r *lrung) boundary(i int) Time { return r.base + r.width*Time(i) }

// locate returns the bucket index for timestamp at, corrected against the
// exact boundary predicate and clamped to the unconsumed range.
func (r *lrung) locate(at Time) int {
	idx := 0
	if f := float64((at - r.base) / r.width); f > 0 {
		idx = int(f)
	}
	if idx >= len(r.buckets) {
		idx = len(r.buckets) - 1
	}
	for idx > 0 && at < r.boundary(idx) {
		idx--
	}
	for idx+1 < len(r.buckets) && at >= r.boundary(idx+1) {
		idx++
	}
	if idx < r.cur {
		// Unreachable while the tier invariants hold (at >= bottomEnd >=
		// boundary(cur)); clamping keeps a rounding surprise from writing
		// into a consumed slot.
		idx = r.cur
	}
	return idx
}

// ladderQueue implements kernel. See the package comment above for the
// tier structure and determinism argument.
type ladderQueue struct {
	s *Scheduler

	bottom    []*event
	bot0      int // first unconsumed bottom index
	bottomEnd Time

	rungs []lrung // rungs[len-1] is the finest (earliest)

	top   []*event
	count int // live (non-cancelled) events across all tiers

	bucketPool [][]*event
	rungPool   [][][]*event
}

func newLadderQueue(s *Scheduler) *ladderQueue {
	return &ladderQueue{s: s}
}

func (q *ladderQueue) len() int { return q.count }

func (q *ladderQueue) push(ev *event) {
	ev.state = evQueued
	q.count++
	at := ev.at
	if at < q.bottomEnd {
		q.insertBottom(ev)
		return
	}
	for i := len(q.rungs) - 1; i >= 0; i-- {
		r := &q.rungs[i]
		if at < r.end {
			j := r.locate(at)
			if r.buckets[j] == nil {
				r.buckets[j] = q.getBucket()
			}
			r.buckets[j] = append(r.buckets[j], ev)
			return
		}
	}
	q.top = append(q.top, ev)
}

// insertBottom places ev at its sorted position. A new event carries the
// largest seq issued so far, so the slot is after every queued event with
// the same timestamp: the first index whose at is strictly greater.
func (q *ladderQueue) insertBottom(ev *event) {
	lo, hi := q.bot0, len(q.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.bottom[mid].at <= ev.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.bottom = append(q.bottom, nil)
	copy(q.bottom[lo+1:], q.bottom[lo:])
	q.bottom[lo] = ev
}

func (q *ladderQueue) peek() *event {
	if !q.ensure() {
		return nil
	}
	return q.bottom[q.bot0]
}

func (q *ladderQueue) pop() *event {
	if !q.ensure() {
		return nil
	}
	ev := q.bottom[q.bot0]
	q.bottom[q.bot0] = nil
	q.bot0++
	q.count--
	return ev
}

// cancel marks the event dead and invalidates its handle; the storage is
// physically released when a purge reaches it.
func (q *ladderQueue) cancel(ev *event) bool {
	ev.state = evDead
	ev.fn = nil
	ev.gen++
	q.count--
	return true
}

// ensure leaves a live event at the bottom front, refilling the bottom
// from the rungs and top as needed. It reports false when no live event
// remains anywhere.
func (q *ladderQueue) ensure() bool {
	for {
		for q.bot0 < len(q.bottom) {
			ev := q.bottom[q.bot0]
			if ev.state != evDead {
				return true
			}
			q.bottom[q.bot0] = nil
			q.bot0++
			q.s.release(ev)
		}
		q.bottom = q.bottom[:0]
		q.bot0 = 0
		if !q.refill() {
			return false
		}
	}
}

// refill moves the next span of events into the (empty) bottom run. It
// reports false when the rungs and top hold no live events.
func (q *ladderQueue) refill() bool {
	for {
		for ri := len(q.rungs) - 1; ri >= 0; ri = len(q.rungs) - 1 {
			r := &q.rungs[ri]
			if r.cur >= len(r.buckets) {
				q.bottomEnd = r.end
				q.putRung(r.buckets)
				r.buckets = nil
				q.rungs = q.rungs[:ri]
				continue
			}
			i := r.cur
			b := r.buckets[i]
			r.buckets[i] = nil
			bStart := r.boundary(i)
			bEnd := r.boundary(i + 1)
			if i == len(r.buckets)-1 {
				bEnd = r.end
			}
			r.cur++
			live := b[:0]
			for _, ev := range b {
				if ev.state == evDead {
					q.s.release(ev)
				} else {
					live = append(live, ev)
				}
			}
			if len(live) == 0 {
				q.putBucket(live)
				q.bottomEnd = bEnd
				continue
			}
			if len(live) > maxBottom && len(q.rungs) < maxRungs &&
				q.spawnRung(bStart, bEnd, live) {
				// A finer rung now tops the stack; r may dangle after the
				// append inside spawnRung, so re-derive it.
				q.putBucket(live)
				continue
			}
			q.bottom = append(q.bottom, live...)
			slices.SortFunc(q.bottom, cmpEvent)
			q.putBucket(live)
			q.bottomEnd = bEnd
			return true
		}
		// Rungs spent: pull from the top tier.
		if len(q.top) == 0 {
			return false
		}
		lo, hi := TimeInf, Time(math.Inf(-1))
		live := q.top[:0]
		for _, ev := range q.top {
			if ev.state == evDead {
				q.s.release(ev)
				continue
			}
			if ev.at < lo {
				lo = ev.at
			}
			if ev.at > hi {
				hi = ev.at
			}
			live = append(live, ev)
		}
		for i := len(live); i < len(q.top); i++ {
			q.top[i] = nil
		}
		q.top = live
		if len(q.top) == 0 {
			return false
		}
		if len(q.top) > maxBottom && !math.IsInf(float64(hi), 1) &&
			q.spawnRung(lo, hi, q.top) {
			for i := range q.top {
				q.top[i] = nil
			}
			q.top = q.top[:0]
			q.bottomEnd = lo
			continue
		}
		// Small (or same-instant, or infinite-horizon) top: swap it
		// straight into the bottom. The swap keeps both backing arrays
		// alive across schedule-one/fire-one cycles, so the steady state
		// allocates nothing.
		b := q.top
		q.top = q.bottom[:0]
		q.bottom = b
		q.bot0 = 0
		slices.SortFunc(q.bottom, cmpEvent)
		q.bottomEnd = hi
		return true
	}
}

// spawnRung splits evs, whose timestamps all lie in [start, end], into a
// new finest rung. It reports false when the span is too tight to split,
// leaving the caller to sort instead.
func (q *ladderQueue) spawnRung(start, end Time, evs []*event) bool {
	span := end - start
	if !(span > minSpawnSpan) {
		return false
	}
	nb := len(evs)
	if nb > maxRungBuckets {
		nb = maxRungBuckets
	}
	width := span / Time(nb)
	if width <= 0 || start+width == start {
		return false
	}
	q.rungs = append(q.rungs, lrung{base: start, width: width, end: end, buckets: q.getRung(nb)})
	r := &q.rungs[len(q.rungs)-1]
	for _, ev := range evs {
		j := r.locate(ev.at)
		if r.buckets[j] == nil {
			r.buckets[j] = q.getBucket()
		}
		r.buckets[j] = append(r.buckets[j], ev)
	}
	return true
}

func (q *ladderQueue) getBucket() []*event {
	if n := len(q.bucketPool); n > 0 {
		b := q.bucketPool[n-1]
		q.bucketPool[n-1] = nil
		q.bucketPool = q.bucketPool[:n-1]
		return b
	}
	return nil
}

func (q *ladderQueue) putBucket(b []*event) {
	if cap(b) == 0 || len(q.bucketPool) >= maxPooledBuckets {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = nil
	}
	q.bucketPool = append(q.bucketPool, b[:0])
}

func (q *ladderQueue) getRung(nb int) [][]*event {
	if n := len(q.rungPool); n > 0 {
		rb := q.rungPool[n-1]
		q.rungPool[n-1] = nil
		q.rungPool = q.rungPool[:n-1]
		if cap(rb) >= nb {
			rb = rb[:nb]
			for i := range rb {
				rb[i] = nil
			}
			return rb
		}
	}
	return make([][]*event, nb)
}

func (q *ladderQueue) putRung(rb [][]*event) {
	if cap(rb) == 0 || len(q.rungPool) >= maxRungs {
		return
	}
	q.rungPool = append(q.rungPool, rb[:0])
}
