package radio

import (
	"roborepair/internal/sim"
)

// Contention model: an optional refinement of the ideal medium that
// approximates the 802.11 MAC the paper ran on. Each transmission waits a
// random backoff, then occupies the air for a frame-length-dependent
// airtime; a receiver decodes a frame only if no other transmission it can
// hear overlaps the frame's airtime (collision otherwise). This is a
// slotted-ALOHA-with-backoff abstraction of CSMA: at the paper's traffic
// load (beacons every 10 s, sparse control traffic) collisions are rare
// and delivery stays ≈100%, matching the paper's observation, but the
// model lets robustness experiments crank the load until the MAC matters.

// CatCollision is the metrics category counting receptions lost to
// overlapping transmissions.
const CatCollision = "collision"

// ContentionConfig parameterizes the optional MAC model.
type ContentionConfig struct {
	// Airtime is how long one frame occupies the channel (e.g. a 1000 B
	// frame at 11 Mbit/s ≈ 0.73 ms).
	Airtime sim.Duration
	// MaxBackoff is the upper bound of the uniform random delay before a
	// transmission starts.
	MaxBackoff sim.Duration
	// Rand draws the backoffs.
	Rand interface{ Float64() float64 }
}

// Enabled reports whether the contention model is active.
func (c ContentionConfig) Enabled() bool {
	return c.Airtime > 0 && c.Rand != nil
}

// reception is one transmission interval audible at a station.
type reception struct {
	frame uint64
	start sim.Time
	end   sim.Time
}

// air tracks per-station audible transmission intervals. byStation is
// indexed by NodeID, like the medium's other per-station state, and grows
// on the first mark of a station past its end.
type air struct {
	byStation [][]reception
}

// log returns the station's audible intervals.
func (a *air) log(st NodeID) []reception {
	if int(st) >= len(a.byStation) {
		return nil
	}
	return a.byStation[st]
}

// mark logs that a frame is audible at the station over [start, end).
func (a *air) mark(st NodeID, r reception) {
	if int(st) >= len(a.byStation) {
		a.byStation = append(a.byStation, make([][]reception, int(st)+1-len(a.byStation))...)
	}
	log := a.byStation[st]
	// Prune entries that can no longer overlap anything in flight.
	cutoff := r.start - (r.end-r.start)*8
	keep := log[:0]
	for _, e := range log {
		if e.end > cutoff {
			keep = append(keep, e)
		}
	}
	a.byStation[st] = append(keep, r)
}

// collided reports whether any other audible interval overlaps the frame's
// interval at the station.
func (a *air) collided(st NodeID, frame uint64, start, end sim.Time) bool {
	for _, e := range a.log(st) {
		if e.frame == frame {
			continue
		}
		if e.start < end && start < e.end {
			return true
		}
	}
	return false
}

// busyUntil reports whether the channel is busy at the station at instant
// now, and when the ongoing transmission(s) end.
func (a *air) busyUntil(st NodeID, now sim.Time) (sim.Time, bool) {
	var until sim.Time
	busy := false
	for _, e := range a.log(st) {
		if e.start <= now && now < e.end {
			busy = true
			if e.end > until {
				until = e.end
			}
		}
	}
	return until, busy
}

// csmaMaxDefers bounds how often a transmission defers to a busy channel
// before it gives up waiting and transmits anyway (matching 802.11's
// retry-bounded behaviour while guaranteeing simulation progress).
const csmaMaxDefers = 16

// transmission is one send from Send to delivery under the contention
// model or a Channel: every event of its backoff, carrier-sense deferrals
// and airtime runs the same bound step. Records come from the medium's
// free list and go back on it once delivered, keeping their step func and
// their encode buffer, so a warmed medium sends without allocating either.
type transmission struct {
	m   *Medium
	f   Frame
	pos sendSnapshot
	// id is the frame's air-log identity; start and end its airtime,
	// set when it goes on the air.
	id         uint64
	start, end sim.Time
	defers     int
	// waiting marks a pending carrier-sense deferral: the next step draws
	// a fresh backoff instead of sensing the channel.
	waiting bool
	step    func()
	// enc holds the Channel encoding; without a Channel it stays empty
	// and delivery hands handoff a nil record.
	enc encoded
}

// txFreeCap bounds the free list. Sends come in bursts — a field's boot
// puts ~800 in flight at once, later floods hundreds — and keeping every
// record a burst leaves behind would hold it and its buffer live for the
// rest of the run. Between bursts few sends overlap: 16 records serve
// nine sends in ten of the hostile-central16 benchmark workload.
const txFreeCap = 16

// takeTransmission returns a reset record, recycled when the free list
// has one. The popped slot is cleared so the list's backing array does
// not keep a record it no longer owns alive.
func (m *Medium) takeTransmission() *transmission {
	if n := len(m.txFree); n > 0 {
		t := m.txFree[n-1]
		m.txFree[n-1] = nil
		m.txFree = m.txFree[:n-1]
		return t
	}
	t := &transmission{m: m}
	t.step = t.advance
	return t
}

// putTransmission hands a delivered record back to the free list, or to
// the garbage collector once the list is full. It drops the frame and the
// shared decode so a parked record pins no payload, and keeps the step
// func and the encode buffer's storage.
func (m *Medium) putTransmission(t *transmission) {
	if len(m.txFree) == txFreeCap {
		return
	}
	*t = transmission{m: m, step: t.step, enc: encoded{b: t.enc.b[:0]}}
	m.txFree = append(m.txFree, t)
}

// sendContended implements Send under the contention model: CSMA-style
// carrier sensing with random backoff, then the frame occupies the air for
// its airtime; receivers decode it only if nothing else they can hear
// overlaps (hidden terminals still collide, as in real 802.11). t is a
// fresh record holding the Channel's encoding of f, if any.
func (m *Medium) sendContended(t *transmission, f Frame, pos sendSnapshot) {
	m.frameSeq++
	t.f, t.pos, t.id = f, pos, m.frameSeq
	m.tryTransmit(t)
}

func (m *Medium) backoff() sim.Duration {
	if m.cfg.Contention.MaxBackoff <= 0 {
		return 0
	}
	return sim.Duration(m.cfg.Contention.Rand.Float64()) * m.cfg.Contention.MaxBackoff
}

// tryTransmit starts one attempt: a fresh backoff, then carrier sense.
func (m *Medium) tryTransmit(t *transmission) {
	m.sched.After(m.backoff(), t.step)
}

// advance runs the transmission's next event: the end of a deferral
// starts a new attempt, the end of the airtime (end is set only once the
// frame is on the air) delivers, and the end of a backoff senses the
// channel.
func (t *transmission) advance() {
	m := t.m
	switch {
	case t.waiting:
		t.waiting = false
		m.tryTransmit(t)
	case t.end != 0:
		m.deliverContended(t)
	default:
		m.senseAndTransmit(t)
	}
}

// senseAndTransmit defers while the channel is busy at the sender, and
// otherwise puts the frame on the air: it is marked audible at every
// active station in range, regardless of addressing — that is what causes
// collisions — and at the sender itself, for carrier sensing by its later
// frames. Each station's air log is its own and no station is marked twice
// per frame, so the marking order does not matter: the audible set is
// walked unsorted.
func (m *Medium) senseAndTransmit(t *transmission) {
	now := m.sched.Now()
	if until, busy := m.air.busyUntil(t.f.Src, now); busy && t.defers < csmaMaxDefers {
		t.defers++
		t.waiting = true
		m.sched.After(until.Sub(now), t.step)
		return
	}
	t.start = now
	t.end = now.Add(m.cfg.Contention.Airtime)
	r := reception{frame: t.id, start: t.start, end: t.end}
	audible := m.acquire()
	if m.cachedStatic(t.f.Src, t.pos.pos, t.pos.rng) {
		audible = m.staticAppend(audible, t.f.Src, t.pos.pos, t.pos.rng)
	} else {
		audible = m.gridAppend(audible, t.pos.pos, t.pos.rng, t.f.Src)
	}
	for _, n := range audible {
		m.air.mark(n.id, r)
	}
	m.release(audible)
	m.air.mark(t.f.Src, r)
	m.sched.After(m.cfg.Contention.Airtime, t.step)
}

// deliverContended hands the frame to every in-range receiver, in ID
// order, that heard no overlapping transmission over its airtime. The
// record goes back to the free list when it returns, whichever way.
func (m *Medium) deliverContended(t *transmission) {
	defer m.putTransmission(t)
	f, pos := t.f, t.pos
	var tx *encoded
	if m.cfg.Channel != nil {
		tx = &t.enc
	}
	if m.silenced(pos.pos) {
		m.reg.CountTx(CatBlackout, 1)
		return
	}
	deliverTo := func(n neighbor) {
		if m.air.collided(n.id, t.id, t.start, t.end) {
			m.collisionCt.Add(1)
			return
		}
		if m.silenced(m.posOf(n.id)) {
			return
		}
		if m.lost(f, n.id) {
			return
		}
		m.handoff(f, tx, pos.pos, pos.rng, n.st)
	}
	if f.Dst != IDBroadcast {
		dst := m.station(f.Dst)
		if dst == nil || !m.active[f.Dst] {
			return
		}
		if pos.pos.Dist2(m.posOf(f.Dst)) > pos.rng*pos.rng {
			return
		}
		deliverTo(neighbor{id: f.Dst, st: dst})
		return
	}
	buf := m.neighbors(pos.pos, pos.rng, f.Src)
	for _, n := range buf {
		deliverTo(n)
	}
	m.release(buf)
}
