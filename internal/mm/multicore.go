package mm

import (
	"fmt"

	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// MultiCoreConfig configures the per-core-TLB model from the paper's
// ubiquity discussion: multi-core systems have per-core TLBs in front of
// one shared physical memory. Each core runs its own request stream;
// pages are shared (one copy in RAM serves all cores), but translations
// are cached per core — so a page fault on one core invalidates the
// translation in *every* core's TLB (the shootdown).
type MultiCoreConfig struct {
	Cores          int
	TLBEntriesEach int
	HugePageSize   uint64
	RAMPages       uint64
	Seed           uint64
}

func (c *MultiCoreConfig) validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("mm: cores must be positive")
	}
	if c.TLBEntriesEach <= 0 {
		return fmt.Errorf("mm: per-core TLB entries must be positive")
	}
	if c.HugePageSize == 0 || c.HugePageSize&(c.HugePageSize-1) != 0 {
		return fmt.Errorf("mm: huge-page size must be a power of two ≥ 1")
	}
	if c.RAMPages < c.HugePageSize {
		return fmt.Errorf("mm: RAM below one huge page")
	}
	return nil
}

// MultiCore models per-core TLBs over shared RAM. It is not an Algorithm
// (requests carry a core id); AccessOn is the entry point.
type MultiCore struct {
	cfg  MultiCoreConfig
	tlbs []*tlb.TLB
	ram  policy.Policy // shared, huge-page-granular

	costs      Costs
	ex         *explain.Counters
	shootdowns uint64
	perCore    []Costs
}

// multiCoreKey tags the classifier keyspace per (huge page, core): each
// core's TLB caches its own copy of the translation.
func (m *MultiCore) multiCoreKey(u uint64, core int) uint64 {
	return u*uint64(m.cfg.Cores) + uint64(core)
}

// NewMultiCore builds the model.
func NewMultiCore(cfg MultiCoreConfig) (*MultiCore, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &MultiCore{cfg: cfg, perCore: make([]Costs, cfg.Cores)}
	for i := 0; i < cfg.Cores; i++ {
		t, err := tlb.New(cfg.TLBEntriesEach, policy.LRUKind, cfg.Seed+uint64(i))
		if err != nil {
			return nil, err
		}
		m.tlbs = append(m.tlbs, t)
	}
	ram, err := policy.New(policy.LRUKind, int(cfg.RAMPages/cfg.HugePageSize), cfg.Seed+1000)
	if err != nil {
		return nil, err
	}
	m.ram = ram
	return m, nil
}

// AccessOn services a request for page v issued by the given core.
func (m *MultiCore) AccessOn(core int, v uint64) {
	if core < 0 || core >= m.cfg.Cores {
		panic(fmt.Sprintf("mm: core %d out of range [0,%d)", core, m.cfg.Cores))
	}
	m.costs.Accesses++
	m.perCore[core].Accesses++
	u := v / m.cfg.HugePageSize

	hit, victim := m.ram.Access(u)
	if !hit {
		m.costs.IOs += m.cfg.HugePageSize
		m.perCore[core].IOs += m.cfg.HugePageSize
		m.ex.DemandIO()
		m.ex.AmplifiedIO(m.cfg.HugePageSize - 1)
		if victim != policy.NoEviction {
			m.ex.Evict()
			// Shootdown: the evicted huge page's translation leaves every
			// core's TLB.
			for c, t := range m.tlbs {
				if t.Invalidate(victim) {
					m.shootdowns++
					m.ex.Shootdown()
					m.ex.TLBInvalidated(m.multiCoreKey(victim, c))
				}
			}
		}
	}

	if !m.tlbs[core].Lookup(u) {
		m.costs.TLBMisses++
		m.perCore[core].TLBMisses++
		m.ex.TLBMiss(m.multiCoreKey(u, core))
		m.tlbs[core].Insert(u)
	}
}

// Costs returns aggregate counters.
func (m *MultiCore) Costs() Costs { return m.costs }

// CoreCosts returns one core's counters.
func (m *MultiCore) CoreCosts(core int) Costs { return m.perCore[core] }

// Shootdowns returns the number of per-core TLB invalidations caused by
// shared-RAM evictions.
func (m *MultiCore) Shootdowns() uint64 { return m.shootdowns }

// EnableExplain implements Explainer.
func (m *MultiCore) EnableExplain() {
	if m.ex == nil {
		m.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (m *MultiCore) Explain() *explain.Counters { return m.ex }

// ExplainGauges implements Gauger: shared RAM occupancy and the summed
// reach of the per-core TLBs.
func (m *MultiCore) ExplainGauges() (explain.Gauges, bool) {
	h := m.cfg.HugePageSize
	g := occupancyGauges(uint64(m.ram.Len())*h, m.cfg.RAMPages)
	g.CoveragePages = h
	for _, t := range m.tlbs {
		g.TLBReachPages += t.Reach(h)
	}
	return g, true
}

// ResetCosts zeroes all counters.
func (m *MultiCore) ResetCosts() {
	m.costs = Costs{}
	m.ex.Reset()
	m.shootdowns = 0
	for i := range m.perCore {
		m.perCore[i] = Costs{}
	}
	for _, t := range m.tlbs {
		t.ResetCounters()
	}
}

// Name identifies the configuration.
func (m *MultiCore) Name() string {
	return fmt.Sprintf("multicore(%d cores,h=%d)", m.cfg.Cores, m.cfg.HugePageSize)
}
