package netstack

import (
	"math"

	"roborepair/internal/geom"
	"roborepair/internal/radio"
)

// DefaultTTL bounds the hop count of a routed packet. The largest field in
// the paper's experiments is 800 m × 800 m with 63 m hops (~18 hops across
// the diagonal); 64 leaves generous room for perimeter detours.
const DefaultTTL = 64

// NeighborSource supplies a node's candidate next hops at forwarding time.
// The returned view may share storage with the source, or with every
// MediumSource on the same medium: the router only reads it, and stops
// reading it when it transmits.
type NeighborSource interface {
	RoutingNeighbors() NeighborView
}

// MediumSource derives next hops from ground-truth radio range. Robots and
// the central manager use it: their 250 m transmissions reach any station
// within range, and the HELLO/reply discovery that would populate their
// tables belongs to the paper's "initialization and failure detection"
// traffic, which Figures 3–4 exclude. Substituting the ground-truth query
// is therefore metric-neutral (documented in DESIGN.md).
type MediumSource struct {
	Medium *radio.Medium
	Self   radio.NodeID
	// Host supplies the querying node's position and range.
	Host Host
}

// RoutingNeighbors implements NeighborSource with a view of the medium's
// range-query scratch (radio.Medium.InRangeScratch), which every
// MediumSource on the medium shares. The view is valid until the next
// query on the medium. Router.process reads it only before the hop's
// transmit, the one point where a synchronous delivery could start
// another node's query.
func (s *MediumSource) RoutingNeighbors() NeighborView {
	return NeighborView{ranged: s.Medium.InRangeScratch(s.Host.RadioPos(), s.Host.RadioRange(), s.Self)}
}

var _ NeighborSource = (*MediumSource)(nil)

// DropReason classifies why a packet was discarded.
type DropReason string

const (
	// DropTTL means the packet exceeded its hop budget.
	DropTTL DropReason = "ttl"
	// DropStuck means no forwarding progress was possible (isolated node
	// or empty neighbor set).
	DropStuck DropReason = "stuck"
)

// Host is the node a Router forwards for: its radio position and range,
// and the sinks for packets addressed to it and packets it discards.
// Sensors, robots and the central manager implement it.
type Host interface {
	RadioPos() geom.Point
	RadioRange() float64
	// DeliverPacket receives a packet addressed to the host.
	DeliverPacket(Packet)
	// DropPacket observes a packet discarded at the host.
	DropPacket(Packet, DropReason)
}

// Router implements per-node geographic forwarding: greedy by default,
// face routing (right-hand rule on the Gabriel subgraph) to recover from
// holes, and a last-resort direct transmission toward a destination whose
// advertised location is already within the sender's range (how repair
// requests catch a robot that moved since its last location update).
type Router struct {
	// ID is this node's address.
	ID radio.NodeID
	// Host is the node itself: position, range, delivery and drops.
	Host Host
	// Medium transmits frames.
	Medium *radio.Medium
	// Source supplies next-hop candidates.
	Source NeighborSource
	// RecordPaths makes packets originated here carry their full hop
	// path (diagnostics).
	RecordPaths bool
}

// Originate injects a locally-created packet into the network.
func (r *Router) Originate(p Packet) {
	p.Src = r.ID
	if p.TTL <= 0 {
		p.TTL = DefaultTTL
	}
	if p.Mode == 0 {
		p.Mode = ModeGreedy
	}
	if r.RecordPaths && p.Path == nil {
		p.Path = []radio.NodeID{r.ID}
	}
	r.process(p)
}

// Receive handles a packet that arrived in a frame addressed to this node.
func (r *Router) Receive(p Packet) { r.process(p) }

func (r *Router) process(p Packet) {
	if p.Dst == r.ID {
		r.Host.DeliverPacket(p)
		return
	}
	if p.TTL <= 0 {
		r.Host.DropPacket(p, DropTTL)
		return
	}
	self := r.Host.RadioPos()
	neighbors := r.Source.RoutingNeighbors()

	// Direct delivery when the destination is a known neighbor.
	it := neighbors.Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if n.ID == p.Dst {
			r.transmit(p, n.ID)
			return
		}
	}

	if p.Mode == ModePerimeter && self.Dist2(p.DstLoc) < p.EntryLoc.Dist2(p.DstLoc) {
		p.Mode = ModeGreedy // recovered: closer than where we got stuck
	}

	switch p.Mode {
	case ModeGreedy:
		if next, ok := greedyNext(self, p.DstLoc, neighbors); ok {
			r.transmit(p, next.ID)
			return
		}
		// Hole. If the destination's advertised location is already in
		// range, transmit at it directly: the medium delivers iff the
		// destination is actually reachable (it may have moved ≤ the
		// 20 m update threshold).
		if self.Dist(p.DstLoc) <= r.Host.RadioRange() {
			r.transmit(p, p.Dst)
			return
		}
		p.Mode = ModePerimeter
		p.EntryLoc = self
		p.PrevLoc = p.DstLoc // first perimeter reference edge per GPSR
		fallthrough
	case ModePerimeter:
		if next, ok := perimeterNext(self, p.PrevLoc, neighbors); ok {
			p.PrevLoc = self
			r.transmit(p, next.ID)
			return
		}
		r.Host.DropPacket(p, DropStuck)
	default:
		r.Host.DropPacket(p, DropStuck)
	}
}

func (r *Router) transmit(p Packet, next radio.NodeID) {
	p.Hops++
	p.TTL--
	if p.Path != nil {
		// Copy-on-append: frames may be re-examined by diagnostics.
		path := make([]radio.NodeID, len(p.Path), len(p.Path)+1)
		copy(path, p.Path)
		p.Path = append(path, next)
	}
	r.Medium.Send(radio.Frame{
		Src:      r.ID,
		Dst:      next,
		Category: p.Category,
		Payload:  p,
	})
}

// greedyNext picks the neighbor strictly closer to dst than self, choosing
// the closest such neighbor; ok is false at a local minimum.
func greedyNext(self, dst geom.Point, neighbors NeighborView) (Neighbor, bool) {
	selfD := self.Dist2(dst)
	best := Neighbor{}
	bestD := selfD
	found := false
	it := neighbors.Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if d := n.Loc.Dist2(dst); d < bestD {
			best, bestD = n, d
			found = true
		}
	}
	return best, found
}

// perimeterNext applies the right-hand rule: among the Gabriel-subgraph
// neighbors, take the first one counter-clockwise from the edge back
// toward prev.
func perimeterNext(self, prev geom.Point, neighbors NeighborView) (Neighbor, bool) {
	witnesses := make([]geom.Point, 0, neighbors.Len())
	it := neighbors.Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		witnesses = append(witnesses, n.Loc)
	}
	ref := self.Angle(prev)
	best := Neighbor{}
	bestDelta := math.Inf(1)
	found := false
	it = neighbors.Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		if !geom.GabrielEdge(self, n.Loc, witnesses) {
			continue
		}
		delta := math.Mod(self.Angle(n.Loc)-ref+4*math.Pi, 2*math.Pi)
		if delta < 1e-9 {
			delta = 2 * math.Pi // avoid bouncing straight back
		}
		if delta < bestDelta {
			best, bestDelta = n, delta
			found = true
		}
	}
	return best, found
}
