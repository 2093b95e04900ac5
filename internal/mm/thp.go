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

// unitRAM is the RAM the adaptive mixed-page-size baselines (THP and
// HawkEye) share; they differ only in when they promote: THP on the
// fault that brings a region's residency to promoteAt, HawkEye per
// epoch. RAM is tracked in *units*: a unit is either a single base page
// or a whole promoted region. Units live in one LRU; evicting a promoted
// region frees (and demotes) the whole region — the
// indivisible-mapping-unit behavior the paper's Section 7 calls out as
// THP's swapping-cost problem.
//
// TLB keys distinguish base-page entries (covering 1 page) from huge
// entries (covering h pages); promotion invalidates the region's base
// entries, modeling the shootdown.
type unitRAM struct {
	meter
	h        uint64 // pages per region (power of two)
	shift    uint   // log2(h): region r = v >> shift
	ramPages uint64
	tlb      *tlb.TLB
	ram      *policy.DenseLRU // keys are unit ids (see unitBase/unitHuge)

	// Per-region state is flat, indexed by region number. resident uses
	// sentinel 0: a present region always has ≥ 1 resident base page.
	resident *dense.Table[uint32] // region -> resident base pages (unpromoted regions only)
	promoted *dense.Bitset        // regions currently promoted
	used     uint64               // resident base pages across all units

	promoteAt  uint32 // THP's promotion threshold; 0 never promotes on a fault
	promotions uint64
	demotions  uint64
}

// Unit-id tagging: base pages and promoted regions share the LRU keyspace.
func unitBase(v uint64) uint64    { return v << 1 }
func unitHuge(r uint64) uint64    { return r<<1 | 1 }
func isHugeUnit(id uint64) bool   { return id&1 == 1 }
func unitRegion(id uint64) uint64 { return id >> 1 }

// TLB keys get the same tagging (a huge entry and a base entry must not
// collide).
func tlbBase(v uint64) uint64 { return v << 1 }
func tlbHuge(r uint64) uint64 { return r<<1 | 1 }

// newUnitRAM builds an empty unit RAM of ramPages pages over regions of h
// pages, with an LRU TLB of tlbEntries entries.
func newUnitRAM(h uint64, tlbEntries int, ramPages, seed uint64) (unitRAM, error) {
	t, err := tlb.New(tlbEntries, policy.LRUKind, seed)
	if err != nil {
		return unitRAM{}, err
	}
	return unitRAM{
		h:        h,
		shift:    uint(bits.TrailingZeros64(h)),
		ramPages: ramPages,
		tlb:      t,
		ram:      policy.NewDenseLRU(int(ramPages), 0), // capacity checked in pages by evictUntilFits
		resident: dense.NewTable[uint32](0, 0),
		promoted: dense.NewBitset(0),
	}, nil
}

// touch services v's RAM side and returns v's TLB key: a request to a
// promoted region refreshes its huge unit, any other request refreshes
// v's base unit, and a base page not resident faults in (one IO) — and
// promotes its region when that brings the residency to promoteAt.
func (m *unitRAM) touch(v uint64) (key uint64) {
	r := v >> m.shift
	if m.promoted.Contains(r) {
		m.ram.Access(unitHuge(r)) // always a hit; refreshes recency
		return tlbHuge(r)
	}
	id := unitBase(v)
	if s := m.ram.SlotOf(id); s >= 0 {
		m.ram.Touch(s)
		return tlbBase(v)
	}
	m.fault(1)
	m.evictUntilFits(1)
	m.ram.Access(id)
	m.used++
	count := m.resident.At(r) + 1
	m.resident.Set(r, count)
	if m.promoteAt > 0 && count >= m.promoteAt {
		m.promote(r)
		return tlbHuge(r)
	}
	return tlbBase(v)
}

// pagesOf returns the RAM footprint of a unit.
func (m *unitRAM) pagesOf(id uint64) uint64 {
	if isHugeUnit(id) {
		return m.h
	}
	return 1
}

// evictUntilFits evicts LRU units until `need` more pages fit in RAM.
func (m *unitRAM) evictUntilFits(need uint64) {
	for m.used+need > m.ramPages {
		id, ok := m.ram.EvictLRU()
		if !ok {
			panic("mm: unit RAM cannot free enough pages")
		}
		m.dropUnit(id)
	}
}

// dropUnit releases a unit's pages and TLB entries.
func (m *unitRAM) dropUnit(id uint64) {
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
		r := v >> m.shift
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

// promote converts region r into a physically contiguous huge page:
// fetch its missing base pages (IO amplification), retire the base units,
// and install the huge unit.
func (m *unitRAM) promote(r uint64) {
	missing := m.h - uint64(m.resident.At(r))
	m.costs.IOs += missing
	m.ex.AmplifiedIO(missing)

	// Retire the region's base units (their pages fold into the huge
	// unit) and their base TLB entries.
	start := r << m.shift
	for v := start; v < start+m.h; v++ {
		if m.ram.Remove(unitBase(v)) {
			m.used--
			if m.tlb.Invalidate(tlbBase(v)) {
				m.ex.TLBInvalidated(tlbBase(v))
			}
		}
	}
	m.resident.Delete(r)

	// Make room for the full huge page and install it.
	m.evictUntilFits(m.h)
	m.ram.Access(unitHuge(r))
	m.used += m.h
	m.promoted.Add(r)
	m.promotions++
	m.ex.Promote()
}

// ExplainGauges implements Algorithm: RAM occupancy in base pages, the mix
// of promoted regions, and current TLB reach (huge entries cover h pages,
// base entries one).
func (m *unitRAM) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(m.used, m.ramPages)
	g.CoveragePages = m.h
	promoted := uint64(m.promoted.Len())
	g.PromotedRegions = promoted
	g.TLBReachPages = uint64(m.tlb.Len()) + promoted*(m.h-1)
	return g, true
}

// Promotions and Demotions report adaptive-policy activity.
func (m *unitRAM) Promotions() uint64 { return m.promotions }

// Demotions reports how many promoted regions were evicted wholesale.
func (m *unitRAM) Demotions() uint64 { return m.demotions }

// PromotedRegions reports the current number of promoted regions.
func (m *unitRAM) PromotedRegions() int { return m.promoted.Len() }

// THP is the adaptive mixed-page-size baseline on a unitRAM whose
// promoteAt is the configured threshold: a base-page fault that brings
// its region's residency to the threshold promotes the region at once.
type THP struct {
	unitRAM
	cfg THPConfig
}

var _ Algorithm = (*THP)(nil)

// NewTHP builds the adaptive baseline.
func NewTHP(cfg THPConfig) (*THP, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ram, err := newUnitRAM(cfg.HugePageSize, cfg.TLBEntries, cfg.RAMPages, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ram.promoteAt = uint32(cfg.PromoteThreshold)
	return &THP{unitRAM: ram, cfg: cfg}, nil
}

// Access implements Algorithm.
func (m *THP) Access(v uint64) {
	m.costs.Accesses++
	m.translate(m.tlb, m.touch(v))
}

// AccessBatch implements Batcher. THP's RAM side invalidates TLB entries
// mid-stream (promotion shootdowns, demotion on eviction), so its TLB
// work cannot be hoisted into a separate column pass the way the
// decoupled scheme's can; instead the kernel runs Access's RAM step
// (touch) in order with three exact TLB shortcuts
// (TestStagedBatchMatchesScalar):
//
//   - a request repeating the previous one is a recency no-op everywhere
//     — its unit and TLB entry are both MRU — so it is skipped;
//   - a request whose TLB key equals the previous key (same promoted
//     region) skips the TLB probe: the entry is MRU, and the RAM step of
//     a same-key access is a pure recency refresh that cannot have
//     invalidated it;
//   - the TLB miss path reserves its slot in the probe (LookupOrReserve)
//     instead of re-probing.
func (m *THP) AccessBatch(vs []uint64) {
	var prevV, prevKey uint64
	havePrev := false
	for _, v := range vs {
		if havePrev && v == prevV {
			continue
		}
		key := m.touch(v)
		if (!havePrev || key != prevKey) && !m.tlb.LookupOrReserve(key) {
			m.tlbMiss(key)
		}
		havePrev, prevV, prevKey = true, v, key
	}
	m.costs.Accesses += uint64(len(vs))
}

// ResetCosts implements Algorithm.
func (m *THP) ResetCosts() { m.resetMeter() }

// Name implements Algorithm.
func (m *THP) Name() string {
	return fmt.Sprintf("thp(h=%d,promote@%d)", m.cfg.HugePageSize, m.cfg.PromoteThreshold)
}
