package mm

import (
	"fmt"
	"math/bits"

	"addrxlat/internal/dense"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// SuperpageConfig configures the reservation-based superpage baseline
// (Navarro, Iyer, Druschel, Cox, OSDI '02 — reference [32] of the paper).
// Unlike THP's promote-by-copying, the superpage system *reserves* a full
// physically contiguous huge-page frame on a region's first touch, fills
// it incrementally as base pages fault (no extra promotion IOs), and
// promotes the mapping once every constituent page is populated. Under
// memory pressure, unpopulated reservation frames are preempted (returned)
// before populated pages are evicted — the "reclaim unused pages within a
// superpage" behavior the paper describes.
type SuperpageConfig struct {
	// HugePageSize h: pages per reservation (power of two ≥ 2).
	HugePageSize uint64
	TLBEntries   int
	RAMPages     uint64
	Seed         uint64
}

func (c *SuperpageConfig) validate() error {
	if c.HugePageSize < 2 || c.HugePageSize&(c.HugePageSize-1) != 0 {
		return fmt.Errorf("mm: superpage size %d must be a power of two ≥ 2", c.HugePageSize)
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive")
	}
	if c.RAMPages < c.HugePageSize {
		return fmt.Errorf("mm: RAM (%d pages) below one superpage (%d)", c.RAMPages, c.HugePageSize)
	}
	return nil
}

// Superpage implements the reservation-based baseline. State per region:
//
//   - unreserved: no RAM held.
//   - reserved: a full h-page frame is held; `populated` of its pages are
//     filled. RAM charge is the full h pages (the over-allocation cost
//     the paper notes), but preemption can downgrade the region to exactly
//     its populated pages.
//   - downgraded: preempted regions hold only their populated pages.
//
// The TLB covers a reserved/downgraded region with one entry once
// promoted (fully populated); otherwise base entries are used.
type Superpage struct {
	cfg SuperpageConfig
	tlb *tlb.TLB
	lru *policy.DenseLRU // region ids, recency for preemption/eviction

	regions   []spRegion    // flat by region number; present marks live entries
	populated *dense.Bitset // absolute page numbers populated
	used      uint64

	// reservedFree is Σ (h − populated) over reserved, unpromoted regions:
	// the pages preemption could reclaim right now. Maintaining it
	// incrementally makes fits() O(1) instead of a scan of every region.
	reservedFree uint64

	costs       Costs
	ex          *explain.Counters
	promotions  uint64
	preemptions uint64
}

type spRegion struct {
	pop      uint32 // populated pages in this region
	present  bool   // region is live (tracked in the LRU)
	reserved bool   // full frame held (vs downgraded)
	promoted bool
}

var _ Algorithm = (*Superpage)(nil)

// NewSuperpage builds the reservation-based baseline.
func NewSuperpage(cfg SuperpageConfig) (*Superpage, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries, policy.LRUKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &Superpage{
		cfg: cfg,
		tlb: t,
		// Recency tracking only: every region holds ≥ 1 page, so the
		// region count never exceeds RAMPages and this LRU never
		// self-evicts; page-granular capacity is enforced by makeRoom.
		lru:       policy.NewDenseLRU(int(cfg.RAMPages)+1, 0),
		populated: dense.NewBitset(0),
	}, nil
}

// regionFor returns the (possibly zero-valued) flat entry for region r,
// growing the table on demand.
func (m *Superpage) regionFor(r uint64) *spRegion {
	if r >= uint64(len(m.regions)) {
		newLen := uint64(len(m.regions))*2 + 1
		if newLen <= r {
			newLen = r + 1
		}
		regs := make([]spRegion, newLen)
		copy(regs, m.regions)
		m.regions = regs
	}
	return &m.regions[r]
}

// charge returns the RAM pages a region currently holds.
func (m *Superpage) charge(reg *spRegion) uint64 {
	if reg.reserved {
		return m.cfg.HugePageSize
	}
	return uint64(reg.pop)
}

// makeRoom frees RAM until `need` more pages fit: first preempt the
// least-recent *unpromoted* reservations down to their populated pages,
// then evict whole least-recent regions.
func (m *Superpage) makeRoom(need uint64) {
	if m.used+need <= m.cfg.RAMPages {
		return
	}
	// Pass 1: preempt reservations (cheapest — frees unpopulated pages
	// without IO consequences), least recent first. Preemption mutates
	// only region state, never the LRU, so the in-place scan is safe.
	if m.reservedFree > 0 {
		m.lru.ScanLRU(func(r uint64) bool {
			reg := &m.regions[r]
			if reg.reserved && !reg.promoted {
				freed := m.cfg.HugePageSize - uint64(reg.pop)
				reg.reserved = false
				m.used -= freed
				m.reservedFree -= freed
				m.preemptions++
				m.ex.Preempt()
			}
			return m.used+need > m.cfg.RAMPages && m.reservedFree > 0
		})
	}
	// Pass 2: evict whole regions, least recent first.
	for m.used+need > m.cfg.RAMPages {
		r, ok := m.lru.EvictLRU()
		if !ok {
			panic("mm: superpage cannot free enough RAM")
		}
		m.dropRegion(r)
	}
}

// dropRegion releases region r entirely.
func (m *Superpage) dropRegion(r uint64) {
	reg := &m.regions[r]
	m.used -= m.charge(reg)
	m.ex.Evict()
	if reg.reserved && !reg.promoted {
		m.reservedFree -= m.cfg.HugePageSize - uint64(reg.pop)
	}
	start := r * m.cfg.HugePageSize
	if reg.promoted {
		m.ex.Demote()
		if m.tlb.Invalidate(tlbHuge(r)) {
			m.ex.TLBInvalidated(tlbHuge(r))
		}
	}
	for o := uint64(0); o < m.cfg.HugePageSize; o++ {
		if m.populated.Remove(start+o) && !reg.promoted {
			if m.tlb.Invalidate(tlbBase(start + o)) {
				m.ex.TLBInvalidated(tlbBase(start + o))
			}
		}
	}
	*reg = spRegion{}
}

// Access implements Algorithm.
func (m *Superpage) Access(v uint64) {
	m.costs.Accesses++
	r := v / m.cfg.HugePageSize

	reg := m.regionFor(r)
	if !reg.present {
		// First touch: try to reserve a full frame; if RAM is too tight
		// even after preemption, fall back to a downgraded (page-grain)
		// region. Reservation itself costs no IO beyond the demanded
		// page — the frame is just claimed. r is not in the LRU yet, so
		// makeRoom cannot evict it.
		reg.present = true
		if m.fits(m.cfg.HugePageSize) {
			m.makeRoom(m.cfg.HugePageSize)
			reg.reserved = true
			m.used += m.cfg.HugePageSize
			m.reservedFree += m.cfg.HugePageSize
		} else {
			m.makeRoom(1)
			m.used++
		}
		m.populated.Add(v)
		reg.pop++
		if reg.reserved {
			m.reservedFree--
		}
		m.costs.IOs++
		m.ex.DemandIO()
		m.lru.Access(r)
	} else {
		m.lru.Access(r)
		if !m.populated.Contains(v) {
			// Populate one more page.
			if !reg.reserved {
				m.makeRoom(1)
				// makeRoom may have evicted r itself in pathological
				// tiny-RAM cases; re-install if so (dropRegion cleared
				// its state and its populated bits).
				if !reg.present {
					reg.present = true
					m.lru.Access(r)
				}
				m.used++
			}
			m.populated.Add(v)
			reg.pop++
			if reg.reserved {
				m.reservedFree--
			}
			m.costs.IOs++
			m.ex.DemandIO()
		}
	}

	// Promotion: a fully populated reservation becomes a superpage.
	if reg.reserved && !reg.promoted && uint64(reg.pop) == m.cfg.HugePageSize {
		reg.promoted = true
		m.promotions++
		m.ex.Promote()
		start := r * m.cfg.HugePageSize
		for o := uint64(0); o < m.cfg.HugePageSize; o++ {
			if m.tlb.Invalidate(tlbBase(start + o)) {
				m.ex.TLBInvalidated(tlbBase(start + o))
			}
		}
	}

	var key uint64
	if reg.promoted {
		key = tlbHuge(r)
	} else {
		key = tlbBase(v)
	}
	if !m.tlb.Lookup(key) {
		m.costs.TLBMisses++
		m.ex.TLBMiss(key)
		m.tlb.Insert(key)
	}
}

// fits reports whether `pages` more pages could fit after preempting every
// unpromoted reservation (i.e. whether reservation is worth attempting).
// O(1): reservedFree tracks the preemptable total incrementally.
func (m *Superpage) fits(pages uint64) bool {
	return m.used-m.reservedFree+pages <= m.cfg.RAMPages
}

// AccessBatch implements Batcher. Like THP, the superpage system's RAM
// side invalidates TLB entries mid-stream (promotion shootdowns, evicted
// regions), so the kernel stays in-order and fused, with the same exact
// shortcuts (TestStagedBatchMatchesScalar): repeats
// of the previous request collapse to one TLB hit count (the region and
// entry are both MRU, the page already populated); a request sharing the
// previous TLB key — same promoted region — skips the probe, since its
// RAM path is a pure recency refresh of a fully populated region; all
// other requests run the scalar body with the probe-and-reserve TLB op.
func (m *Superpage) AccessBatch(vs []uint64) {
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

		reg := m.regionFor(r)
		if !reg.present {
			reg.present = true
			if m.fits(m.cfg.HugePageSize) {
				m.makeRoom(m.cfg.HugePageSize)
				reg.reserved = true
				m.used += m.cfg.HugePageSize
				m.reservedFree += m.cfg.HugePageSize
			} else {
				m.makeRoom(1)
				m.used++
			}
			m.populated.Add(v)
			reg.pop++
			if reg.reserved {
				m.reservedFree--
			}
			m.costs.IOs++
			m.ex.DemandIO()
			m.lru.Access(r)
		} else {
			m.lru.Access(r)
			if !m.populated.Contains(v) {
				if !reg.reserved {
					m.makeRoom(1)
					if !reg.present {
						reg.present = true
						m.lru.Access(r)
					}
					m.used++
				}
				m.populated.Add(v)
				reg.pop++
				if reg.reserved {
					m.reservedFree--
				}
				m.costs.IOs++
				m.ex.DemandIO()
			}
		}

		if reg.reserved && !reg.promoted && uint64(reg.pop) == m.cfg.HugePageSize {
			reg.promoted = true
			m.promotions++
			m.ex.Promote()
			start := r * m.cfg.HugePageSize
			for o := uint64(0); o < m.cfg.HugePageSize; o++ {
				if m.tlb.Invalidate(tlbBase(start + o)) {
					m.ex.TLBInvalidated(tlbBase(start + o))
				}
			}
		}

		var key uint64
		if reg.promoted {
			key = tlbHuge(r)
		} else {
			key = tlbBase(v)
		}
		if havePrev && key == prevKey {
			t.NoteRepeatHit()
		} else if !t.LookupOrReserve(key) {
			m.costs.TLBMisses++
			m.ex.TLBMiss(key)
		}
		havePrev, prevV, prevKey = true, v, key
	}
	m.costs.Accesses += uint64(len(vs))
}

// Costs implements Algorithm.
func (m *Superpage) Costs() Costs { return m.costs }

// ResetCosts implements Algorithm.
func (m *Superpage) ResetCosts() {
	m.costs = Costs{}
	m.ex.Reset()
	m.tlb.ResetCounters()
}

// EnableExplain implements Explainer.
func (m *Superpage) EnableExplain() {
	if m.ex == nil {
		m.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (m *Superpage) Explain() *explain.Counters { return m.ex }

// ExplainGauges implements Gauger. Fragmentation is the reservation
// over-allocation: pages charged to RAM that back no data (h − populated
// over reserved, unpromoted regions), the quantity preemption reclaims.
func (m *Superpage) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(m.used, m.cfg.RAMPages)
	g.FragmentedPages = m.reservedFree
	g.Fragmentation = float64(m.reservedFree) / float64(m.cfg.RAMPages)
	g.CoveragePages = m.cfg.HugePageSize
	var promoted uint64
	for i := range m.regions {
		if m.regions[i].promoted {
			promoted++
		}
	}
	g.PromotedRegions = promoted
	g.TLBReachPages = uint64(m.tlb.Len()) + promoted*(m.cfg.HugePageSize-1)
	return g, true
}

// Name implements Algorithm.
func (m *Superpage) Name() string {
	return fmt.Sprintf("superpage(h=%d)", m.cfg.HugePageSize)
}

// Promotions and Preemptions report adaptive activity.
func (m *Superpage) Promotions() uint64 { return m.promotions }

// Preemptions reports how many reservations were downgraded under
// memory pressure.
func (m *Superpage) Preemptions() uint64 { return m.preemptions }
