package mm

import (
	"fmt"

	"addrxlat/internal/core"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// CoalescedConfig configures the coalesced-TLB baseline (CoLT — Pham,
// Vaidyanathan, Jaleel, Bhattacharjee, MICRO '12, reference [41] of the
// paper): TLB entries opportunistically cover an aligned run of up to
// CoalesceLimit pages when those pages happen to be mapped to contiguous
// physical frames. No OS defragmentation is performed — coverage depends
// entirely on the contiguity the allocator produces by chance, which is
// exactly the limitation the paper contrasts decoupling against.
type CoalescedConfig struct {
	// CoalesceLimit: pages per coalesced entry (power of two, 2–8 in the
	// original hardware proposal).
	CoalesceLimit uint64
	TLBEntries    int
	RAMPages      uint64
	VirtualPages  uint64
	Seed          uint64
}

func (c *CoalescedConfig) validate() error {
	if c.CoalesceLimit < 2 || c.CoalesceLimit&(c.CoalesceLimit-1) != 0 {
		return fmt.Errorf("mm: coalesce limit %d must be a power of two ≥ 2", c.CoalesceLimit)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive")
	}
	if c.RAMPages == 0 || c.VirtualPages == 0 {
		return fmt.Errorf("mm: RAM and virtual sizes must be positive")
	}
	return nil
}

// Coalesced runs classical h=1 paging over a fully associative allocator
// (sequential free-list, so contiguous virtual faults often land in
// contiguous frames) with a coalescing TLB: on a fill, if the aligned
// CoalesceLimit-page group around v is fully resident and physically
// contiguous, one entry covers the whole group; otherwise the entry
// covers just v.
type Coalesced struct {
	meter
	cfg   CoalescedConfig
	tlb   *tlb.TLB
	ram   policy.Policy
	alloc *core.FullAllocator

	coalesced uint64 // fills that covered a whole group
	singles   uint64 // fills that covered one page
}

var _ Algorithm = (*Coalesced)(nil)

// NewCoalesced builds the baseline.
func NewCoalesced(cfg CoalescedConfig) (*Coalesced, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries, policy.LRUKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ram, err := policy.New(policy.LRUKind, int(cfg.RAMPages), cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return &Coalesced{
		cfg:   cfg,
		tlb:   t,
		ram:   ram,
		alloc: core.NewFullAllocator(cfg.RAMPages),
	}, nil
}

// TLB keyspace: group entries tagged 1, single-page entries tagged 0.
func coalKeyGroup(group uint64) uint64 { return group<<1 | 1 }
func coalKeySingle(v uint64) uint64    { return v << 1 }

// groupContiguous reports whether v's aligned group is fully resident in
// consecutive frames.
func (m *Coalesced) groupContiguous(v uint64) bool {
	start := v &^ (m.cfg.CoalesceLimit - 1)
	base, ok := m.alloc.PhysOf(start)
	if !ok {
		return false
	}
	for i := uint64(1); i < m.cfg.CoalesceLimit; i++ {
		phys, ok := m.alloc.PhysOf(start + i)
		if !ok || phys != base+i {
			return false
		}
	}
	return true
}

// Access implements Algorithm.
func (m *Coalesced) Access(v uint64) {
	m.costs.Accesses++

	// RAM side: classical h=1 paging through the allocator so physical
	// placement (and hence contiguity) is tracked; pageIn attributes the
	// eviction.
	hit, victim := m.pageIn(m.ram, v, 1)
	if victim != policy.NoEviction {
		m.alloc.Release(victim)
		// A page leaving RAM invalidates any coalesced entry covering it.
		groupDropped := m.tlb.Invalidate(coalKeyGroup(victim / m.cfg.CoalesceLimit))
		singleDropped := m.tlb.Invalidate(coalKeySingle(victim))
		if groupDropped || singleDropped {
			m.ex.TLBInvalidated(victim)
		}
	}
	if !hit {
		if _, ok := m.alloc.Assign(v); !ok {
			panic("mm: coalesced allocator out of frames despite eviction")
		}
	}

	// TLB side: a group entry covering v counts as a hit.
	group := v / m.cfg.CoalesceLimit
	if m.tlb.Lookup(coalKeyGroup(group)) || m.tlb.Lookup(coalKeySingle(v)) {
		return
	}
	m.tlbMiss(v)
	if m.groupContiguous(v) {
		m.tlb.Insert(coalKeyGroup(group))
		m.coalesced++
		m.ex.CoalescedFill()
	} else {
		m.tlb.Insert(coalKeySingle(v))
		m.singles++
		m.ex.SingleFill()
	}
}

// AccessBatch implements Batcher.
func (m *Coalesced) AccessBatch(vs []uint64) {
	for _, v := range vs {
		m.Access(v)
	}
}

// ResetCosts implements Algorithm.
func (m *Coalesced) ResetCosts() { m.resetMeter() }

// ExplainGauges implements Algorithm. TLB reach is reported at one page per
// entry — a lower bound, since the mix of group vs single entries
// currently live in the TLB is not tracked.
func (m *Coalesced) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(uint64(m.ram.Len()), m.cfg.RAMPages)
	g.CoveragePages = m.cfg.CoalesceLimit
	g.TLBReachPages = m.tlb.Reach(1)
	return g, true
}

// Name implements Algorithm.
func (m *Coalesced) Name() string {
	return fmt.Sprintf("coalesced(limit=%d)", m.cfg.CoalesceLimit)
}

// CoalescedFills and SingleFills report how often contiguity was found.
func (m *Coalesced) CoalescedFills() uint64 { return m.coalesced }

// SingleFills reports fills without contiguity.
func (m *Coalesced) SingleFills() uint64 { return m.singles }
