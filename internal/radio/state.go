package radio

import "roborepair/internal/checkpoint"

// AppendState serializes the medium's station table and MAC state in
// canonical order (checkpoint section payload): for every attached ID the
// cached position, activity, and mobility, then the contention model's
// frame counter and the audible intervals of each station that has any,
// in ID order. Station behaviour (HandleFrame) is not serialized — a
// restored run re-attaches the stations by deterministic replay and this
// section verifies the rebuilt table matches.
func (m *Medium) AppendState(b []byte) []byte {
	b = checkpoint.AppendU32(b, uint32(m.count))
	for id := range m.stations {
		if m.stations[id] == nil {
			continue
		}
		b = checkpoint.AppendI64(b, int64(id))
		p := m.posOf(NodeID(id))
		b = checkpoint.AppendF64(b, p.X)
		b = checkpoint.AppendF64(b, p.Y)
		b = checkpoint.AppendBool(b, m.active[id])
		b = checkpoint.AppendBool(b, m.mobile[id])
	}

	b = checkpoint.AppendU64(b, m.frameSeq)
	logged := 0
	for _, log := range m.air.byStation {
		if len(log) > 0 {
			logged++
		}
	}
	b = checkpoint.AppendU32(b, uint32(logged))
	for id, log := range m.air.byStation {
		if len(log) == 0 {
			continue
		}
		b = checkpoint.AppendI64(b, int64(id))
		b = checkpoint.AppendU32(b, uint32(len(log)))
		for _, r := range log {
			b = checkpoint.AppendU64(b, r.frame)
			b = checkpoint.AppendF64(b, float64(r.start))
			b = checkpoint.AppendF64(b, float64(r.end))
		}
	}
	return b
}
