package mm

import (
	"fmt"

	"addrxlat/internal/dense"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// DirectSegmentConfig configures the Direct Segments baseline (Basu,
// Gandhi, Chang, Hill, Swift — ISCA '13, reference [8] of the paper): a
// single hardware (base, limit, offset) segment register maps one large
// primary region of virtual memory with *no TLB involvement at all*;
// everything outside the segment uses conventional paging.
type DirectSegmentConfig struct {
	// SegmentStart and SegmentPages delimit the primary region in
	// virtual pages. The segment is pinned: it occupies SegmentPages of
	// RAM permanently (direct segments do not page).
	SegmentStart uint64
	SegmentPages uint64
	// TLBEntries and RAMPages as elsewhere. RAMPages must exceed
	// SegmentPages — the rest backs conventional paging.
	TLBEntries int
	RAMPages   uint64
	Seed       uint64
}

func (c *DirectSegmentConfig) validate() error {
	if c.SegmentPages == 0 {
		return fmt.Errorf("mm: direct segment must cover at least one page")
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive")
	}
	if c.RAMPages <= c.SegmentPages {
		return fmt.Errorf("mm: RAM (%d) must exceed the pinned segment (%d)", c.RAMPages, c.SegmentPages)
	}
	return nil
}

// DirectSegment models the segment + paging split. Accesses inside
// [SegmentStart, SegmentStart+SegmentPages) cost nothing beyond the first
// touch (one IO to populate each segment page, as the region is demand-
// loaded once and then pinned). Accesses outside run classical h=1 paging
// with a TLB, over the RAM that remains after pinning.
type DirectSegment struct {
	cfg       DirectSegmentConfig
	tlb       *tlb.TLB
	ram       policy.Policy // conventional pages, capacity RAMPages−SegmentPages
	populated *dense.Bitset // segment pages demand-loaded so far

	costs       Costs
	ex          *explain.Counters
	segmentHits uint64
	pagingHits  uint64
}

var _ Algorithm = (*DirectSegment)(nil)

// NewDirectSegment builds the baseline.
func NewDirectSegment(cfg DirectSegmentConfig) (*DirectSegment, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries, policy.LRUKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ram, err := policy.New(policy.LRUKind, int(cfg.RAMPages-cfg.SegmentPages), cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return &DirectSegment{
		cfg:       cfg,
		tlb:       t,
		ram:       ram,
		populated: dense.NewBitset(0),
	}, nil
}

// inSegment reports whether v falls in the primary region.
func (d *DirectSegment) inSegment(v uint64) bool {
	return v >= d.cfg.SegmentStart && v < d.cfg.SegmentStart+d.cfg.SegmentPages
}

// Access implements Algorithm.
func (d *DirectSegment) Access(v uint64) {
	d.costs.Accesses++
	if d.inSegment(v) {
		// Translated by the segment register: never a TLB miss. First
		// touch demand-loads the page into the pinned region.
		if d.populated.Add(v) {
			d.costs.IOs++
			d.ex.DemandIO()
		}
		d.segmentHits++
		return
	}
	d.pagingHits++
	if hit, victim := d.ram.Access(v); !hit {
		d.costs.IOs++
		d.ex.DemandIO()
		if victim != policy.NoEviction {
			d.ex.Evict()
		}
	}
	if !d.tlb.Lookup(v) {
		d.costs.TLBMisses++
		d.ex.TLBMiss(v)
		d.tlb.Insert(v)
	}
}

// AccessBatch implements Batcher.
func (d *DirectSegment) AccessBatch(vs []uint64) {
	for _, v := range vs {
		d.Access(v)
	}
}

// Costs implements Algorithm.
func (d *DirectSegment) Costs() Costs { return d.costs }

// ResetCosts implements Algorithm.
func (d *DirectSegment) ResetCosts() {
	d.costs = Costs{}
	d.ex.Reset()
	d.tlb.ResetCounters()
}

// EnableExplain implements Explainer.
func (d *DirectSegment) EnableExplain() {
	if d.ex == nil {
		d.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (d *DirectSegment) Explain() *explain.Counters { return d.ex }

// ExplainGauges implements Gauger: the pinned segment plus the paged
// remainder; TLB reach counts only the paged side (the segment needs no
// entries — its reach is architectural, not cached).
func (d *DirectSegment) ExplainGauges() (explain.Gauges, bool) {
	resident := uint64(d.populated.Len()) + uint64(d.ram.Len())
	g := occupancyGauges(resident, d.cfg.RAMPages)
	g.CoveragePages = 1
	g.TLBReachPages = d.tlb.Reach(1)
	return g, true
}

// Name implements Algorithm.
func (d *DirectSegment) Name() string {
	return fmt.Sprintf("directseg(pages=%d)", d.cfg.SegmentPages)
}

// SegmentAccesses and PagingAccesses split the traffic for experiments.
func (d *DirectSegment) SegmentAccesses() uint64 { return d.segmentHits }

// PagingAccesses reports accesses outside the segment.
func (d *DirectSegment) PagingAccesses() uint64 { return d.pagingHits }
