package mm

import (
	"fmt"

	"addrxlat/internal/explain"
)

// HybridConfig configures the Section 8 hybrid: huge-page decoupling over
// physically contiguous *groups* of pages. If the optimal virtual
// huge-page size q exceeds hmax, one can decouple huge pages of q pages
// into hmax physical groups of g = q/hmax contiguous pages each: all the
// TLB coverage of size-q huge pages, with IO amplification capped at g
// instead of q.
type HybridConfig struct {
	// Decoupled carries the machine configuration; its page-granularity
	// fields are interpreted in *groups* internally.
	Decoupled DecoupledConfig
	// GroupSize g: physically contiguous base pages per group (power of
	// two ≥ 1). g=1 degenerates to plain decoupling.
	GroupSize uint64
}

// Hybrid runs a Decoupled instance over group addresses: request v maps to
// group v/g; each group fault moves g base pages (cost g IOs); the TLB
// covers hmax groups = hmax·g base pages per entry.
type Hybrid struct {
	meter
	inner *Decoupled
	g     uint64
}

var _ Algorithm = (*Hybrid)(nil)

// NewHybrid builds the hybrid algorithm.
func NewHybrid(cfg HybridConfig) (*Hybrid, error) {
	if cfg.GroupSize == 0 || cfg.GroupSize&(cfg.GroupSize-1) != 0 {
		return nil, fmt.Errorf("mm: group size %d must be a power of two ≥ 1", cfg.GroupSize)
	}
	inner := cfg.Decoupled
	if inner.RAMPages < cfg.GroupSize || inner.VirtualPages < cfg.GroupSize {
		return nil, fmt.Errorf("mm: group size %d exceeds memory (P=%d, V=%d)",
			cfg.GroupSize, inner.RAMPages, inner.VirtualPages)
	}
	// Rescale the machine to group granularity. A partial last group is
	// still a group: pages up to V−1 map to groups up to ⌈V/g⌉−1.
	inner.RAMPages /= cfg.GroupSize
	inner.VirtualPages = (inner.VirtualPages + cfg.GroupSize - 1) / cfg.GroupSize
	z, err := NewDecoupled(inner)
	if err != nil {
		return nil, err
	}
	return &Hybrid{inner: z, g: cfg.GroupSize}, nil
}

// Access implements Algorithm.
func (h *Hybrid) Access(v uint64) {
	var exBefore explain.Counters
	if h.ex != nil {
		exBefore = h.inner.ex.Snapshot()
	}
	before := h.inner.Costs()
	h.inner.Access(v / h.g)
	after := h.inner.Costs()

	// Group IOs amplify by g; ε-costs carry over unchanged.
	h.costs.Accesses++
	h.costs.IOs += (after.IOs - before.IOs) * h.g
	h.costs.TLBMisses += after.TLBMisses - before.TLBMisses
	h.costs.DecodingMisses += after.DecodingMisses - before.DecodingMisses

	if h.ex != nil {
		d := explain.Sub(h.inner.ex.Snapshot(), exBefore)
		// Each group fault moves g base pages: the g−1 beyond the demanded
		// (or failure-serviced) one are amplification, mirroring the IO×g
		// scaling above so the attributed total still matches Costs.IOs.
		d.IOAmplified += (d.IODemand + d.IOFailure) * (h.g - 1)
		h.ex.Merge(d)
	}
}

// AccessBatch implements Batcher.
func (h *Hybrid) AccessBatch(vs []uint64) {
	for _, v := range vs {
		h.Access(v)
	}
}

// ResetCosts implements Algorithm.
func (h *Hybrid) ResetCosts() {
	h.resetMeter()
	h.inner.ResetCosts()
}

// EnableExplain implements Algorithm: attribution is computed per access
// by diffing the inner algorithm's counters, so both layers enable.
func (h *Hybrid) EnableExplain() {
	h.meter.EnableExplain()
	h.inner.EnableExplain()
}

// ExplainGauges implements Algorithm: the inner gauges rescaled from group
// units to base pages (ratios are scale-invariant; bucket loads describe
// the group-granular allocator and pass through).
func (h *Hybrid) ExplainGauges() (explain.Gauges, bool) {
	g, ok := h.inner.ExplainGauges()
	if !ok {
		return g, false
	}
	g.ResidentPages *= h.g
	g.RAMPages *= h.g
	g.TLBReachPages *= h.g
	g.CoveragePages = h.CoveragePages()
	return g, true
}

// Name implements Algorithm.
func (h *Hybrid) Name() string {
	return fmt.Sprintf("hybrid(g=%d,%s)", h.g, h.inner.Name())
}

// CoveragePages returns base pages covered per TLB entry: hmax·g.
func (h *Hybrid) CoveragePages() uint64 {
	return uint64(h.inner.Params().HMax) * h.g
}

// Inner exposes the underlying decoupled algorithm.
func (h *Hybrid) Inner() *Decoupled { return h.inner }
