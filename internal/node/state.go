package node

import "roborepair/internal/checkpoint"

// AppendState serializes the sensor's complete dynamic state in canonical
// order (checkpoint section payload). Scheduled-event handles are omitted:
// their (at, seq) stamps live in the kernel section, and a restored run
// rebuilds the closures by deterministic replay.
func (s *Sensor) AppendState(b []byte) []byte {
	b = checkpoint.AppendI64(b, int64(s.id))
	b = checkpoint.AppendF64(b, s.pos.X)
	b = checkpoint.AppendF64(b, s.pos.Y)
	b = checkpoint.AppendBool(b, s.alive)
	b = checkpoint.AppendI64(b, int64(s.guardian))
	b = checkpoint.AppendF64(b, float64(s.lastGuardian))
	b = checkpoint.AppendI64(b, int64(s.target))
	b = checkpoint.AppendF64(b, s.targetLoc.X)
	b = checkpoint.AppendF64(b, s.targetLoc.Y)
	b = checkpoint.AppendU64(b, s.replayRejected)
	b = checkpoint.AppendU64(b, s.reportSeq)
	b = checkpoint.AppendF64(b, float64(s.lastFrameAt))
	b = checkpoint.AppendI64(b, int64(s.manager))

	// Guardees are kept ID-ascending by upsertGuardee.
	b = checkpoint.AppendU32(b, uint32(len(s.guardees)))
	for _, g := range s.guardees {
		b = checkpoint.AppendI64(b, int64(g.id))
		b = checkpoint.AppendF64(b, g.loc.X)
		b = checkpoint.AppendF64(b, g.loc.Y)
		b = checkpoint.AppendF64(b, float64(g.lastHeard))
	}

	// Robot tracks: known entries only, in list order (ID-ascending).
	known := 0
	for i := range s.robots {
		if s.robots[i].known {
			known++
		}
	}
	b = checkpoint.AppendU32(b, uint32(known))
	for i := range s.robots {
		tr := &s.robots[i]
		if !tr.known {
			continue
		}
		b = checkpoint.AppendI64(b, int64(tr.id))
		b = checkpoint.AppendF64(b, tr.loc.X)
		b = checkpoint.AppendF64(b, tr.loc.Y)
		b = checkpoint.AppendU64(b, tr.seq)
		b = checkpoint.AppendF64(b, float64(tr.heard))
	}

	b = s.table.AppendState(s.statics(), b)

	// Flood duplicate suppression: every origin with a handled flood,
	// in list order (origin-ascending), expired tracks included.
	flooded := 0
	for i := range s.robots {
		if s.robots[i].flooded {
			flooded++
		}
	}
	b = checkpoint.AppendU32(b, uint32(flooded))
	for i := range s.robots {
		if tr := &s.robots[i]; tr.flooded {
			b = checkpoint.AppendI64(b, int64(tr.id))
			b = checkpoint.AppendU64(b, tr.floodSeq)
		}
	}

	// Pending reports are kept Seq-ascending.
	b = checkpoint.AppendU32(b, uint32(len(s.pending)))
	for _, p := range s.pending {
		b = checkpoint.AppendU64(b, p.rep.Seq)
		b = checkpoint.AppendI64(b, int64(p.rep.Failed))
		b = checkpoint.AppendF64(b, p.rep.Loc.X)
		b = checkpoint.AppendF64(b, p.rep.Loc.Y)
		b = checkpoint.AppendI64(b, int64(p.rep.Reporter))
		b = checkpoint.AppendF64(b, p.rep.ReporterLoc.X)
		b = checkpoint.AppendF64(b, p.rep.ReporterLoc.Y)
		b = checkpoint.AppendF64(b, float64(p.rep.DetectedAt))
		b = checkpoint.AppendU32(b, uint32(p.attempts))
		b = checkpoint.AppendBool(b, p.acked)
		b = checkpoint.AppendI64(b, int64(p.target))
	}
	return b
}
