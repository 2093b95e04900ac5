package mm

import (
	"fmt"
	"math/bits"

	"addrxlat/internal/dense"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// THPConfig configures the transparent-huge-page baseline: an OS-style
// adaptive policy (cf. Linux THP, discussed in the paper's Section 7) that
// promotes a huge-page region to a physically contiguous huge page once
// enough of its base pages are resident, and demotes it wholesale on
// eviction.
type THPConfig struct {
	// HugePageSize h: pages per promotable region (power of two ≥ 2).
	HugePageSize uint64
	// PromoteThreshold: a region is promoted when this many of its base
	// pages are simultaneously resident. 0 defaults to h/2 (Linux's
	// max_ptes_none default allows promotion at half-utilization).
	PromoteThreshold int
	// TLBEntries, RAMPages, Seed as elsewhere.
	TLBEntries int
	RAMPages   uint64
	Seed       uint64
}

func (c *THPConfig) validate() error {
	if c.HugePageSize < 2 || c.HugePageSize&(c.HugePageSize-1) != 0 {
		return fmt.Errorf("mm: THP huge-page size %d must be a power of two ≥ 2", c.HugePageSize)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive")
	}
	if c.RAMPages < c.HugePageSize {
		return fmt.Errorf("mm: RAM (%d pages) below one huge page (%d)", c.RAMPages, c.HugePageSize)
	}
	if c.PromoteThreshold == 0 {
		c.PromoteThreshold = int(c.HugePageSize / 2)
	}
	if c.PromoteThreshold < 1 || c.PromoteThreshold > int(c.HugePageSize) {
		return fmt.Errorf("mm: promote threshold %d outside [1, %d]", c.PromoteThreshold, c.HugePageSize)
	}
	return nil
}

// THP is the adaptive mixed-page-size baseline. RAM is tracked in *units*:
// a unit is either a single base page or a whole promoted region. Units
// live in one LRU; evicting a promoted region frees (and demotes) the
// whole region — the indivisible-mapping-unit behavior the paper's
// Section 7 calls out as THP's swapping-cost problem.
//
// TLB keys distinguish base-page entries (covering 1 page) from huge
// entries (covering h pages); promotion invalidates the region's base
// entries, modeling the shootdown.
type THP struct {
	cfg THPConfig
	tlb *tlb.TLB
	ram *policy.DenseLRU // keys are unit ids (see unitBase/unitHuge)

	// Per-region state is flat, indexed by region number. resident uses
	// sentinel 0: a present region always has ≥ 1 resident base page.
	resident *dense.Table[uint32] // region -> resident base pages (unpromoted regions only)
	promoted *dense.Bitset        // regions currently promoted
	used     uint64               // resident base pages across all units

	costs      Costs
	ex         *explain.Counters
	promotions uint64
	demotions  uint64
}

var _ Algorithm = (*THP)(nil)

// Unit-id tagging: base pages and promoted regions share the LRU keyspace.
func unitBase(v uint64) uint64    { return v << 1 }
func unitHuge(r uint64) uint64    { return r<<1 | 1 }
func isHugeUnit(id uint64) bool   { return id&1 == 1 }
func unitRegion(id uint64) uint64 { return id >> 1 }

// TLB keys get the same tagging (a huge entry and a base entry must not
// collide).
func tlbBase(v uint64) uint64 { return v << 1 }
func tlbHuge(r uint64) uint64 { return r<<1 | 1 }

// NewTHP builds the adaptive baseline.
func NewTHP(cfg THPConfig) (*THP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries, policy.LRUKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &THP{
		cfg:      cfg,
		tlb:      t,
		ram:      policy.NewDenseLRU(int(cfg.RAMPages), 0), // capacity checked in pages manually
		resident: dense.NewTable[uint32](0, 0),
		promoted: dense.NewBitset(0),
	}, nil
}

// pagesOf returns the RAM footprint of a unit.
func (m *THP) pagesOf(id uint64) uint64 {
	if isHugeUnit(id) {
		return m.cfg.HugePageSize
	}
	return 1
}

// evictUntilFits evicts LRU units until `need` more pages fit in RAM.
func (m *THP) evictUntilFits(need uint64) {
	for m.used+need > m.cfg.RAMPages {
		id, ok := m.ram.EvictLRU()
		if !ok {
			panic("mm: THP cannot free enough RAM")
		}
		m.dropUnit(id)
	}
}

// dropUnit releases a unit's pages and TLB entries.
func (m *THP) dropUnit(id uint64) {
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
		v := unitRegion(id) // same shift
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
func (m *THP) Access(v uint64) {
	m.costs.Accesses++
	r := v / m.cfg.HugePageSize

	var tlbKey uint64
	if m.promoted.Contains(r) {
		// Promoted region: touch the huge unit.
		m.ram.Access(unitHuge(r)) // always a hit; refreshes recency
		tlbKey = tlbHuge(r)
	} else {
		id := unitBase(v)
		if !m.ram.Contains(id) {
			// Base-page fault: one IO.
			m.costs.IOs++
			m.ex.DemandIO()
			m.evictUntilFits(1)
			m.ram.Access(id)
			m.used++
			count := m.resident.At(r) + 1
			m.resident.Set(r, count)
			// Promotion check.
			if int(count) >= m.cfg.PromoteThreshold {
				m.promote(r)
				tlbKey = tlbHuge(r)
			} else {
				tlbKey = tlbBase(v)
			}
		} else {
			m.ram.Access(id)
			tlbKey = tlbBase(v)
		}
	}

	if !m.tlb.Lookup(tlbKey) {
		m.costs.TLBMisses++
		m.ex.TLBMiss(tlbKey)
		m.tlb.Insert(tlbKey)
	}
}

// promote converts region r into a physically contiguous huge page:
// fetch its missing base pages (IO amplification), retire the base units,
// and install the huge unit.
func (m *THP) promote(r uint64) {
	have := uint64(m.resident.At(r))
	missing := m.cfg.HugePageSize - have
	m.costs.IOs += missing
	m.ex.AmplifiedIO(missing)

	// Retire the region's base units (their pages fold into the huge
	// unit) and their base TLB entries.
	start := r * m.cfg.HugePageSize
	for v := start; v < start+m.cfg.HugePageSize; v++ {
		id := unitBase(v)
		if m.ram.Remove(id) {
			m.used--
			if m.tlb.Invalidate(tlbBase(v)) {
				m.ex.TLBInvalidated(tlbBase(v))
			}
		}
	}
	m.resident.Delete(r)

	// Make room for the full huge page and install it.
	m.evictUntilFits(m.cfg.HugePageSize)
	m.ram.Access(unitHuge(r))
	m.used += m.cfg.HugePageSize
	m.promoted.Add(r)
	m.promotions++
	m.ex.Promote()
}

// AccessBatch implements Batcher. THP's RAM side invalidates TLB entries
// mid-stream (promotion shootdowns, demotion on eviction), so its TLB
// work cannot be hoisted into a separate column pass the way the
// decoupled scheme's can; instead the kernel fuses the scalar access
// in-order with three exact shortcuts (TestStagedBatchMatchesScalar):
//
//   - a request repeating the previous one is a recency no-op everywhere
//     — its unit and TLB entry are both MRU — so it collapses to one TLB
//     hit count;
//   - a request whose TLB key equals the previous key (same promoted
//     region) skips the TLB probe: the entry is MRU, and the RAM path of
//     a same-key access is a pure recency refresh that cannot have
//     invalidated it;
//   - the resident-hit path probes the unit table once (SlotOf+Touch)
//     instead of twice (Contains+Access), and the TLB miss path reserves
//     its slot in the probe (LookupOrReserve) instead of re-probing.
func (m *THP) AccessBatch(vs []uint64) {
	t := m.tlb
	rshift := uint(bits.TrailingZeros64(m.cfg.HugePageSize))
	var prevV, prevKey uint64
	havePrev := false
	for _, v := range vs {
		if havePrev && v == prevV {
			t.NoteRepeatHit()
			continue
		}
		r := v >> rshift
		var tlbKey uint64
		if m.promoted.Contains(r) {
			m.ram.Access(unitHuge(r)) // always a hit; refreshes recency
			tlbKey = tlbHuge(r)
		} else {
			id := unitBase(v)
			if s := m.ram.SlotOf(id); s >= 0 {
				m.ram.Touch(s)
				tlbKey = tlbBase(v)
			} else {
				m.costs.IOs++
				m.ex.DemandIO()
				m.evictUntilFits(1)
				m.ram.Access(id)
				m.used++
				count := m.resident.At(r) + 1
				m.resident.Set(r, count)
				if int(count) >= m.cfg.PromoteThreshold {
					m.promote(r)
					tlbKey = tlbHuge(r)
				} else {
					tlbKey = tlbBase(v)
				}
			}
		}
		if havePrev && tlbKey == prevKey {
			t.NoteRepeatHit()
		} else if !t.LookupOrReserve(tlbKey) {
			m.costs.TLBMisses++
			m.ex.TLBMiss(tlbKey)
		}
		havePrev, prevV, prevKey = true, v, tlbKey
	}
	m.costs.Accesses += uint64(len(vs))
}

// Costs implements Algorithm.
func (m *THP) Costs() Costs { return m.costs }

// ResetCosts implements Algorithm.
func (m *THP) ResetCosts() {
	m.costs = Costs{}
	m.ex.Reset()
	m.tlb.ResetCounters()
}

// EnableExplain implements Explainer.
func (m *THP) EnableExplain() {
	if m.ex == nil {
		m.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (m *THP) Explain() *explain.Counters { return m.ex }

// ExplainGauges implements Gauger: RAM occupancy in base pages, the mix of
// promoted regions, and current TLB reach (huge entries cover h pages,
// base entries one).
func (m *THP) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(m.used, m.cfg.RAMPages)
	g.CoveragePages = m.cfg.HugePageSize
	promoted := uint64(m.promoted.Len())
	g.PromotedRegions = promoted
	g.TLBReachPages = uint64(m.tlb.Len()) + promoted*(m.cfg.HugePageSize-1)
	return g, true
}

// Name implements Algorithm.
func (m *THP) Name() string {
	return fmt.Sprintf("thp(h=%d,promote@%d)", m.cfg.HugePageSize, m.cfg.PromoteThreshold)
}

// Promotions and Demotions report adaptive-policy activity.
func (m *THP) Promotions() uint64 { return m.promotions }

// Demotions reports how many promoted regions were evicted wholesale.
func (m *THP) Demotions() uint64 { return m.demotions }

// PromotedRegions reports the current number of promoted regions.
func (m *THP) PromotedRegions() int { return m.promoted.Len() }
