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

// MultiCore models per-core TLBs over shared RAM. As an Algorithm it
// deals requests to the cores round-robin; AccessOn issues a request on a
// chosen core.
type MultiCore struct {
	meter
	cfg  MultiCoreConfig
	tlbs []*tlb.TLB
	ram  policy.Policy // shared, huge-page-granular
	next int           // the core Access issues on; survives ResetCosts

	shootdowns uint64
	perCore    []Costs
}

var _ Algorithm = (*MultiCore)(nil)

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

	if hit, victim := m.pageIn(m.ram, u, m.cfg.HugePageSize); !hit {
		m.perCore[core].IOs += m.cfg.HugePageSize
		if victim != policy.NoEviction {
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
		m.tlbMiss(m.multiCoreKey(u, core))
		m.perCore[core].TLBMisses++
		m.tlbs[core].Insert(u)
	}
}

// Access implements Algorithm: the request is issued on the next core in
// round-robin order.
func (m *MultiCore) Access(v uint64) {
	m.AccessOn(m.next, v)
	if m.next++; m.next == m.cfg.Cores {
		m.next = 0
	}
}

// AccessBatch implements Batcher.
func (m *MultiCore) AccessBatch(vs []uint64) {
	for _, v := range vs {
		m.Access(v)
	}
}

// CoreCosts returns one core's counters.
func (m *MultiCore) CoreCosts(core int) Costs { return m.perCore[core] }

// Shootdowns returns the number of per-core TLB invalidations caused by
// shared-RAM evictions.
func (m *MultiCore) Shootdowns() uint64 { return m.shootdowns }

// ExplainGauges implements Algorithm: shared RAM occupancy and the summed
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

// ResetCosts zeroes all counters, keeping cache state and the
// round-robin position.
func (m *MultiCore) ResetCosts() {
	m.resetMeter()
	m.shootdowns = 0
	for i := range m.perCore {
		m.perCore[i] = Costs{}
	}
}

// Name identifies the configuration.
func (m *MultiCore) Name() string {
	return fmt.Sprintf("multicore(%d cores,h=%d)", m.cfg.Cores, m.cfg.HugePageSize)
}
