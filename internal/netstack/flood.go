package netstack

import "roborepair/internal/radio"

// Flooder implements the duplicate suppression of controlled flooding:
// "a sensor may receive the same update message multiple times, but it
// relays the message to its neighbors only once. This is achieved by
// remembering the sequence number of the robot location updates it has
// relayed before" (paper §3.2).
//
// Sequence numbers are monotone per origin, so remembering the highest
// handled sequence per origin suffices and stays O(#robots) per sensor.
// The zero Flooder is ready to use; its map is made on the first Fresh.
type Flooder struct {
	seen map[radio.NodeID]uint64
}

// Fresh reports whether m is the first copy of its (origin, seq) instance
// seen here, and marks it handled. Later copies — and stale instances with
// lower sequence numbers — report false.
func (f *Flooder) Fresh(m FloodMsg) bool {
	last, ok := f.seen[m.Origin]
	if ok && m.Seq <= last {
		return false
	}
	if f.seen == nil {
		f.seen = make(map[radio.NodeID]uint64)
	}
	f.seen[m.Origin] = m.Seq
	return true
}

// LastSeq returns the highest sequence number handled for origin.
func (f *Flooder) LastSeq(origin radio.NodeID) (uint64, bool) {
	s, ok := f.seen[origin]
	return s, ok
}
