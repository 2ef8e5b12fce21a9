package netstack

import "roborepair/internal/checkpoint"

// AppendState serializes the table's entries in ascending ID order
// (checkpoint section payload); st is the table's Statics.
func (t *NeighborTable) AppendState(st Statics, b []byte) []byte {
	v := t.View(st)
	b = checkpoint.AppendU32(b, uint32(v.Len()))
	it := v.Iter()
	for n, ok := it.Next(); ok; n, ok = it.Next() {
		b = checkpoint.AppendI64(b, int64(n.ID))
		b = checkpoint.AppendF64(b, n.Loc.X)
		b = checkpoint.AppendF64(b, n.Loc.Y)
		b = checkpoint.AppendF64(b, float64(n.LastHeard))
	}
	return b
}
