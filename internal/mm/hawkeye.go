package mm

import (
	"fmt"
	"sort"

	"addrxlat/internal/dense"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// HawkEyeConfig configures the HawkEye-style baseline (Panwar, Bansal,
// Gopinath — ASPLOS '19, reference [35] of the paper). Where THP promotes
// a region the moment its residency crosses a threshold, HawkEye ranks
// candidate regions by *access coverage* (how hot they actually are,
// sampled per epoch) and promotes only the top few per epoch — modeling
// khugepaged's bounded promotion rate and avoiding wasted promotions of
// cold, merely-resident regions.
type HawkEyeConfig struct {
	// HugePageSize h: pages per promotable region (power of two ≥ 2).
	HugePageSize uint64
	// EpochLength: accesses per promotion epoch. 0 defaults to 64·h.
	EpochLength int
	// PromoteBudget: max promotions per epoch. 0 defaults to 2.
	PromoteBudget int
	// MinResident: minimum resident pages for a region to be a
	// promotion candidate. 0 defaults to h/4.
	MinResident int
	TLBEntries  int
	RAMPages    uint64
	Seed        uint64
}

func (c *HawkEyeConfig) validate() error {
	if c.HugePageSize < 2 || c.HugePageSize&(c.HugePageSize-1) != 0 {
		return fmt.Errorf("mm: hawkeye huge-page size %d must be a power of two ≥ 2", c.HugePageSize)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive")
	}
	if c.RAMPages < c.HugePageSize {
		return fmt.Errorf("mm: RAM below one huge page")
	}
	if c.EpochLength == 0 {
		c.EpochLength = 64 * int(c.HugePageSize)
	}
	if c.EpochLength < 1 {
		return fmt.Errorf("mm: epoch length must be positive")
	}
	if c.PromoteBudget == 0 {
		c.PromoteBudget = 2
	}
	if c.PromoteBudget < 1 {
		return fmt.Errorf("mm: promote budget must be positive")
	}
	if c.MinResident == 0 {
		c.MinResident = int(c.HugePageSize / 4)
	}
	if c.MinResident < 1 || c.MinResident > int(c.HugePageSize) {
		return fmt.Errorf("mm: min resident %d outside [1,%d]", c.MinResident, c.HugePageSize)
	}
	return nil
}

// HawkEye is the access-coverage-ranked promotion baseline. RAM tracking
// mirrors THP (units are base pages or promoted regions in one LRU);
// promotion decisions differ: per-epoch, budgeted, hotness-ranked.
type HawkEye struct {
	cfg HawkEyeConfig
	tlb *tlb.TLB
	ram *policy.DenseLRU

	// Flat per-region state (sentinel 0 works for both counters: present
	// regions always have ≥ 1 resident page / ≥ 1 epoch access). touched
	// lists the regions with nonzero hotness, in first-touch order, so the
	// epoch scan and reset walk only what the epoch used — deterministically,
	// where the map version relied on a sort to undo range-order randomness.
	resident *dense.Table[uint32] // region -> resident base pages (unpromoted)
	promoted *dense.Bitset
	hotness  *dense.Table[uint64] // region -> accesses this epoch
	touched  []uint64             // regions with hotness > 0, first-touch order
	used     uint64
	tick     int

	costs      Costs
	ex         *explain.Counters
	promotions uint64
	demotions  uint64
}

var _ Algorithm = (*HawkEye)(nil)

// NewHawkEye builds the baseline.
func NewHawkEye(cfg HawkEyeConfig) (*HawkEye, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries, policy.LRUKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &HawkEye{
		cfg:      cfg,
		tlb:      t,
		ram:      policy.NewDenseLRU(int(cfg.RAMPages), 0),
		resident: dense.NewTable[uint32](0, 0),
		promoted: dense.NewBitset(0),
		hotness:  dense.NewTable[uint64](0, 0),
	}, nil
}

func (m *HawkEye) pagesOf(id uint64) uint64 {
	if isHugeUnit(id) {
		return m.cfg.HugePageSize
	}
	return 1
}

func (m *HawkEye) evictUntilFits(need uint64) {
	for m.used+need > m.cfg.RAMPages {
		id, ok := m.ram.EvictLRU()
		if !ok {
			panic("mm: hawkeye cannot free enough RAM")
		}
		m.dropUnit(id)
	}
}

func (m *HawkEye) dropUnit(id uint64) {
	m.used -= m.pagesOf(id)
	m.ex.Evict()
	if isHugeUnit(id) {
		r := unitRegion(id)
		m.promoted.Remove(r)
		m.demotions++
		m.ex.Demote()
		if m.tlb.Invalidate(tlbHuge(r)) {
			m.ex.TLBInvalidated(tlbHuge(r))
		}
	} else {
		v := unitRegion(id)
		r := v / m.cfg.HugePageSize
		if c := m.resident.At(r); c <= 1 {
			m.resident.Delete(r)
		} else {
			m.resident.Set(r, c-1)
		}
		if m.tlb.Invalidate(tlbBase(v)) {
			m.ex.TLBInvalidated(tlbBase(v))
		}
	}
}

// Access implements Algorithm.
func (m *HawkEye) Access(v uint64) {
	m.costs.Accesses++
	r := v / m.cfg.HugePageSize
	hot := m.hotness.At(r)
	if hot == 0 {
		m.touched = append(m.touched, r)
	}
	m.hotness.Set(r, hot+1)

	var tlbKey uint64
	if m.promoted.Contains(r) {
		m.ram.Access(unitHuge(r))
		tlbKey = tlbHuge(r)
	} else {
		id := unitBase(v)
		if !m.ram.Contains(id) {
			m.costs.IOs++
			m.ex.DemandIO()
			m.evictUntilFits(1)
			m.ram.Access(id)
			m.used++
			m.resident.Set(r, m.resident.At(r)+1)
		} else {
			m.ram.Access(id)
		}
		tlbKey = tlbBase(v)
	}

	if !m.tlb.Lookup(tlbKey) {
		m.costs.TLBMisses++
		m.ex.TLBMiss(tlbKey)
		m.tlb.Insert(tlbKey)
	}

	m.tick++
	if m.tick >= m.cfg.EpochLength {
		m.tick = 0
		m.epochPromote()
	}
}

// epochPromote ranks unpromoted candidate regions by epoch hotness and
// promotes up to the budget, then decays the samples (HawkEye halves its
// access-bit histograms; we reset, the simplest decay).
func (m *HawkEye) epochPromote() {
	type cand struct {
		region uint64
		hot    uint64
	}
	var cands []cand
	for _, r := range m.touched {
		if m.promoted.Contains(r) {
			continue
		}
		if int(m.resident.At(r)) < m.cfg.MinResident {
			continue
		}
		cands = append(cands, cand{r, m.hotness.At(r)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hot != cands[j].hot {
			return cands[i].hot > cands[j].hot
		}
		return cands[i].region < cands[j].region // deterministic ties
	})
	budget := m.cfg.PromoteBudget
	for _, c := range cands {
		if budget == 0 {
			break
		}
		m.promote(c.region)
		budget--
	}
	for _, r := range m.touched {
		m.hotness.Delete(r)
	}
	m.touched = m.touched[:0]
}

// promote copy-promotes region r (as THP does: missing pages are fetched).
func (m *HawkEye) promote(r uint64) {
	have := uint64(m.resident.At(r))
	m.costs.IOs += m.cfg.HugePageSize - have
	m.ex.AmplifiedIO(m.cfg.HugePageSize - have)
	start := r * m.cfg.HugePageSize
	for v := start; v < start+m.cfg.HugePageSize; v++ {
		if m.ram.Remove(unitBase(v)) {
			m.used--
			if m.tlb.Invalidate(tlbBase(v)) {
				m.ex.TLBInvalidated(tlbBase(v))
			}
		}
	}
	m.resident.Delete(r)
	m.evictUntilFits(m.cfg.HugePageSize)
	m.ram.Access(unitHuge(r))
	m.used += m.cfg.HugePageSize
	m.promoted.Add(r)
	m.promotions++
	m.ex.Promote()
}

// AccessBatch implements Batcher.
func (m *HawkEye) AccessBatch(vs []uint64) {
	for _, v := range vs {
		m.Access(v)
	}
}

// Costs implements Algorithm.
func (m *HawkEye) Costs() Costs { return m.costs }

// ResetCosts implements Algorithm.
func (m *HawkEye) ResetCosts() {
	m.costs = Costs{}
	m.ex.Reset()
	m.tlb.ResetCounters()
}

// EnableExplain implements Explainer.
func (m *HawkEye) EnableExplain() {
	if m.ex == nil {
		m.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (m *HawkEye) Explain() *explain.Counters { return m.ex }

// ExplainGauges implements Gauger.
func (m *HawkEye) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(m.used, m.cfg.RAMPages)
	g.CoveragePages = m.cfg.HugePageSize
	promoted := uint64(m.promoted.Len())
	g.PromotedRegions = promoted
	g.TLBReachPages = uint64(m.tlb.Len()) + promoted*(m.cfg.HugePageSize-1)
	return g, true
}

// Name implements Algorithm.
func (m *HawkEye) Name() string {
	return fmt.Sprintf("hawkeye(h=%d,budget=%d/epoch)", m.cfg.HugePageSize, m.cfg.PromoteBudget)
}

// Promotions and Demotions report adaptive activity.
func (m *HawkEye) Promotions() uint64 { return m.promotions }

// Demotions reports wholesale evictions of promoted regions.
func (m *HawkEye) Demotions() uint64 { return m.demotions }
