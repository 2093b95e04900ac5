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
	cfg   HugePageConfig
	shift uint // log2(h): huge-page number u = v >> shift

	// Merged fast path (LRU TLB + LRU RAM).
	stack *policy.RecencyStack

	// Generic path (any other policy combination).
	tlb *tlb.TLB
	ram policy.Policy // cache of huge-page ids, capacity P/h

	costs Costs
	ex    *explain.Counters
}

var _ Algorithm = (*HugePage)(nil)

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

	if m.stack != nil {
		var wasFull bool
		if m.ex != nil {
			wasFull = uint64(m.stack.Zone2Len()) == m.cfg.RAMPages/m.cfg.HugePageSize
		}
		tlbHit, ramHit := m.stack.Access(u)
		if !ramHit {
			m.costs.IOs += m.cfg.HugePageSize
			m.ex.DemandIO()
			m.ex.AmplifiedIO(m.cfg.HugePageSize - 1)
			if wasFull {
				m.ex.Evict()
			}
		}
		if !tlbHit {
			m.costs.TLBMisses++
			m.ex.TLBMiss(u)
		}
		return
	}

	// RAM first: ensure the huge page containing v is resident. A fault
	// moves all h constituent pages (cost h), possibly evicting another
	// huge page (evictions free).
	if hit, victim := m.ram.Access(u); !hit {
		m.costs.IOs += m.cfg.HugePageSize
		m.ex.DemandIO()
		m.ex.AmplifiedIO(m.cfg.HugePageSize - 1)
		if victim != policy.NoEviction {
			m.ex.Evict()
		}
	}

	// TLB: one entry covers the whole huge page.
	if !m.tlb.Lookup(u) {
		m.costs.TLBMisses++
		m.ex.TLBMiss(u)
		m.tlb.Insert(u)
	}
}

// AccessBatch implements Batcher. On the merged-LRU path the whole chunk
// is handed to the recency stack's columnar kernel: huge-page derivation,
// run-length collapse of consecutive same-page requests, and the two-zone
// LRU transitions all happen in one fused pass, and only the column's
// total zone misses come back — multiplied into the cost counters here,
// since every zone2 miss moves h pages and every zone1 miss is one TLB
// insertion. With explain armed the per-access attribution (the eviction
// gauge reads zone occupancy before each access) needs the scalar loop.
func (m *HugePage) AccessBatch(vs []uint64) {
	if st := m.stack; st != nil && m.ex == nil {
		miss1, miss2 := st.AccessShifted(vs, m.shift)
		m.costs.Accesses += uint64(len(vs))
		m.costs.IOs += miss2 * m.cfg.HugePageSize
		m.costs.TLBMisses += miss1
		return
	}
	for _, v := range vs {
		m.Access(v)
	}
}

// Costs implements Algorithm.
func (m *HugePage) Costs() Costs { return m.costs }

// ResetCosts implements Algorithm.
func (m *HugePage) ResetCosts() {
	m.costs = Costs{}
	m.ex.Reset()
	if m.tlb != nil {
		m.tlb.ResetCounters()
	}
}

// EnableExplain implements Explainer.
func (m *HugePage) EnableExplain() {
	if m.ex == nil {
		m.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (m *HugePage) Explain() *explain.Counters { return m.ex }

// ExplainGauges implements Gauger: RAM occupancy at huge-page granularity
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
