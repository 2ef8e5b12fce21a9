package netstack

import "roborepair/internal/checkpoint"

// AppendState serializes the table's entries in ascending ID order
// (checkpoint section payload).
func (t *NeighborTable) AppendState(b []byte) []byte {
	all := t.All()
	b = checkpoint.AppendU32(b, uint32(len(all)))
	for _, n := range all {
		b = checkpoint.AppendI64(b, int64(n.ID))
		b = checkpoint.AppendF64(b, n.Loc.X)
		b = checkpoint.AppendF64(b, n.Loc.Y)
		b = checkpoint.AppendF64(b, float64(n.LastHeard))
	}
	return b
}
