package mm

import (
	"fmt"
	"math/bits"

	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// HugePageConfig configures the Section 6 baseline simulator.
type HugePageConfig struct {
	// HugePageSize h: pages per (virtually and physically contiguous)
	// huge page. Must be a power of two ≥ 1. h=1 is classical paging.
	HugePageSize uint64
	// TLBEntries ℓ (the paper models 1536).
	TLBEntries int
	// RAMPages P: physical memory size in base pages.
	RAMPages uint64
	// TLBPolicy and RAMPolicy; the paper uses LRU for both.
	TLBPolicy policy.Kind
	RAMPolicy policy.Kind
	// Seed feeds randomized policies.
	Seed uint64

	// disableMergedLRU forces the generic two-structure path even when
	// both policies are LRU; tests use it to pin the merged recency-stack
	// path against the composed one.
	disableMergedLRU bool
}

func (c *HugePageConfig) validate() error {
	if c.HugePageSize == 0 || c.HugePageSize&(c.HugePageSize-1) != 0 {
		return fmt.Errorf("mm: huge-page size %d must be a power of two ≥ 1", c.HugePageSize)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive, got %d", c.TLBEntries)
	}
	if c.RAMPages == 0 {
		return fmt.Errorf("mm: RAM pages must be positive")
	}
	if c.RAMPages < c.HugePageSize {
		return fmt.Errorf("mm: RAM (%d pages) smaller than one huge page (%d)", c.RAMPages, c.HugePageSize)
	}
	if c.TLBPolicy == "" {
		c.TLBPolicy = policy.LRUKind
	}
	if c.RAMPolicy == "" {
		c.RAMPolicy = policy.LRUKind
	}
	return nil
}

// HugePage is the paper's Section 6 trace-driven simulator: huge pages of
// size h are both virtually and physically contiguous, so the TLB caches
// one entry per huge page, RAM is managed at huge-page granularity, and
// every page fault moves h pages at a cost of h IOs — page-fault
// amplification made explicit.
//
// With the paper's LRU/LRU configuration both caches see the identical
// huge-page reference stream, so by the LRU inclusion property they are
// two zones of one recency order: a single policy.RecencyStack answers
// both hit/miss questions per access, with bit-identical counters to the
// two-structure composition (which remains as the path for other
// replacement policies).
type HugePage struct {
	meter
	cfg   HugePageConfig
	shift uint // log2(h): huge-page number u = v >> shift

	// Merged fast path (LRU TLB + LRU RAM).
	stack *policy.RecencyStack

	// Generic path (any other policy combination).
	tlb *tlb.TLB
	ram policy.Policy // cache of huge-page ids, capacity P/h
}

var (
	_ Algorithm = (*HugePage)(nil)
	_ Warmer    = (*HugePage)(nil)
)

// NewHugePage builds the baseline simulator.
func NewHugePage(cfg HugePageConfig) (*HugePage, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &HugePage{cfg: cfg, shift: uint(bits.TrailingZeros64(cfg.HugePageSize))}
	frames := int(cfg.RAMPages / cfg.HugePageSize)
	if cfg.TLBPolicy == policy.LRUKind && cfg.RAMPolicy == policy.LRUKind && !cfg.disableMergedLRU {
		m.stack = policy.NewRecencyStack(cfg.TLBEntries, frames, 0)
		return m, nil
	}
	t, err := tlb.New(cfg.TLBEntries, cfg.TLBPolicy, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ram, err := policy.New(cfg.RAMPolicy, frames, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	m.tlb = t
	m.ram = ram
	return m, nil
}

// Access implements Algorithm.
func (m *HugePage) Access(v uint64) {
	m.costs.Accesses++
	u := v >> m.shift

	if st := m.stack; st != nil {
		if m.ex != nil {
			m.accessStackArmed(u)
			return
		}
		tlbHit, ramHit := st.Access(u)
		if !tlbHit {
			m.costs.TLBMisses++
		}
		if !ramHit {
			m.costs.IOs += m.cfg.HugePageSize
		}
		return
	}

	// RAM first: ensure the huge page containing v is resident. A fault
	// moves all h constituent pages (cost h), possibly evicting another
	// huge page (evictions free).
	m.pageIn(m.ram, u, m.cfg.HugePageSize)
	// TLB: one entry covers the whole huge page.
	m.translate(m.tlb, u)
}

// accessStackArmed is Access on the merged path with attribution armed.
// The access is attributed as a column of one, the way AccessBatch
// attributes a whole column, so the two interleave on one simulator. It
// is kept out of Access so that the disarmed path holds nothing live
// across the stack call.
func (m *HugePage) accessStackArmed(u uint64) {
	st := m.stack
	zone2, distinct := st.Zone2Len(), st.Distinct()
	hit1, hit2 := st.Access(u)
	var miss1, miss2 uint64
	if !hit1 {
		miss1 = 1
	}
	if !hit2 {
		miss2 = 1
	}
	m.costs.TLBMisses += miss1
	m.costs.IOs += miss2 * m.cfg.HugePageSize
	m.attributeStack(miss1, miss2, zone2, distinct)
}

// AccessBatch implements Batcher. On the merged-LRU path the whole chunk
// is handed to the recency stack's columnar kernel: huge-page derivation,
// run-length collapse of consecutive same-page requests, and the two-zone
// LRU transitions all happen in one fused pass, and only the column's
// total zone misses come back — multiplied into the cost counters here,
// since every zone2 miss moves h pages and every zone1 miss is one TLB
// insertion. Armed runs take the same kernel: attributeStack derives the
// attribution from the same totals plus the stack's zone-2 occupancy and
// distinct-key count, read before and after the column.
func (m *HugePage) AccessBatch(vs []uint64) {
	if st := m.stack; st != nil {
		zone2, distinct := st.Zone2Len(), st.Distinct()
		miss1, miss2 := st.AccessShifted(vs, m.shift)
		m.costs.Accesses += uint64(len(vs))
		m.costs.IOs += miss2 * m.cfg.HugePageSize
		m.costs.TLBMisses += miss1
		if m.ex != nil {
			m.attributeStack(miss1, miss2, zone2, distinct)
		}
		return
	}
	for _, v := range vs {
		m.Access(v)
	}
}

// Warm implements Warmer. On the merged-LRU path, unarmed, a stack that
// has never been read is stamped (policy.RecencyStack.Stamp): the
// warm-up costs one store per run of one huge page instead of a
// simulated access, and the first access after it settles the exact
// warm state. Otherwise, and once the stack declines, it is AccessBatch.
func (m *HugePage) Warm(vs []uint64) {
	if m.stack != nil && m.ex == nil && m.stack.Stamp(vs, m.shift) {
		m.costs.Accesses += uint64(len(vs))
		return
	}
	m.AccessBatch(vs)
}

// attributeStack attributes the zone misses the merged stack reported
// since zone2 = Zone2Len() and distinct = Distinct() were read. Every
// zone2 miss is one demand IO plus h−1 amplified ones, and it evicts
// unless it grew zone 2, which only grows until it is full. A zone1 miss
// is compulsory exactly when it is a key's first request (a first request
// misses both zones, and HugePage never invalidates a TLB entry), and
// capacity otherwise. So the column totals give the same counts as
// classifying each access.
func (m *HugePage) attributeStack(miss1, miss2 uint64, zone2, distinct int) {
	ex, h := m.ex, m.cfg.HugePageSize
	first := uint64(m.stack.Distinct() - distinct)
	ex.IODemand += miss2
	ex.IOAmplified += miss2 * (h - 1)
	ex.Evictions += miss2 - uint64(m.stack.Zone2Len()-zone2)
	ex.TLBCompulsory += first
	ex.TLBCapacity += miss1 - first
}

// ResetCosts implements Algorithm.
func (m *HugePage) ResetCosts() { m.resetMeter() }

// ExplainGauges implements Algorithm: RAM occupancy at huge-page granularity
// and the TLB's current reach (h pages per entry).
func (m *HugePage) ExplainGauges() (explain.Gauges, bool) {
	h := m.cfg.HugePageSize
	g := occupancyGauges(uint64(m.ResidentHugePages())*h, m.cfg.RAMPages)
	g.CoveragePages = h
	g.TLBReachPages = uint64(m.TLBLen()) * h
	return g, true
}

// Name implements Algorithm.
func (m *HugePage) Name() string {
	return fmt.Sprintf("hugepage(h=%d,%s/%s)", m.cfg.HugePageSize, m.cfg.TLBPolicy, m.cfg.RAMPolicy)
}

// ResidentHugePages reports how many huge pages are in RAM.
func (m *HugePage) ResidentHugePages() int {
	if m.stack != nil {
		return m.stack.Zone2Len()
	}
	return m.ram.Len()
}

// TLBLen reports the TLB occupancy.
func (m *HugePage) TLBLen() int {
	if m.stack != nil {
		return m.stack.Zone1Len()
	}
	return m.tlb.Len()
}
