package metrics

import (
	"sort"

	"roborepair/internal/checkpoint"
)

// AppendState serializes the registry's complete dynamic state in
// canonical order (checkpoint section payload). Known counters come first
// in their fixed slot order; open-ended counters, sample series, and
// histograms follow sorted by name, so two registries with identical
// content serialize identically whatever their insertion history.
func (r *Registry) AppendState(b []byte) []byte {
	for i := range r.known {
		b = checkpoint.AppendU64(b, r.known[i].n)
	}

	names := make([]string, 0, len(r.tx))
	for k := range r.tx {
		names = append(names, k)
	}
	sort.Strings(names)
	b = checkpoint.AppendU32(b, uint32(len(names)))
	for _, k := range names {
		b = checkpoint.AppendString(b, k)
		b = checkpoint.AppendU64(b, r.tx[k].n)
	}

	names = names[:0]
	for k := range r.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	b = checkpoint.AppendU32(b, uint32(len(names)))
	for _, k := range names {
		b = checkpoint.AppendString(b, k)
		b = appendAccumulator(b, r.samples[k])
	}

	names = names[:0]
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	b = checkpoint.AppendU32(b, uint32(len(names)))
	for _, k := range names {
		b = checkpoint.AppendString(b, k)
		b = r.hists[k].AppendState(b)
	}
	return b
}

// AppendState serializes the histogram's bucket layout and dynamic state
// (a checkpoint section fragment).
func (h *Histogram) AppendState(b []byte) []byte {
	b = checkpoint.AppendF64(b, h.width)
	b = checkpoint.AppendBool(b, h.doubling)
	b = checkpoint.AppendU32(b, uint32(len(h.counts)))
	for _, c := range h.counts {
		b = checkpoint.AppendU64(b, c)
	}
	b = checkpoint.AppendU64(b, h.overflow)
	return appendAccumulator(b, &h.acc)
}

func appendAccumulator(b []byte, a *Accumulator) []byte {
	b = checkpoint.AppendI64(b, int64(a.n))
	b = checkpoint.AppendF64(b, a.sum)
	b = checkpoint.AppendF64(b, a.sumSq)
	b = checkpoint.AppendF64(b, a.min)
	b = checkpoint.AppendF64(b, a.max)
	return b
}
