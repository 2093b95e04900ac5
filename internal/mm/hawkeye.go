package mm

import (
	"fmt"
	"sort"

	"addrxlat/internal/dense"
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

// HawkEye is the access-coverage-ranked promotion baseline on THP's
// unitRAM (promoteAt 0: a fault never promotes); only the promotion
// trigger differs: per-epoch, budgeted, hotness-ranked.
type HawkEye struct {
	unitRAM
	cfg HawkEyeConfig

	// Flat per-region hotness (sentinel 0: a present region has ≥ 1 epoch
	// access). touched lists the regions with nonzero hotness, in
	// first-touch order, so the epoch scan and reset walk only what the
	// epoch used — deterministically, where the map version relied on a
	// sort to undo range-order randomness.
	hotness *dense.Table[uint64] // region -> accesses this epoch
	touched []uint64             // regions with hotness > 0, first-touch order
	tick    int
}

var _ Algorithm = (*HawkEye)(nil)

// NewHawkEye builds the baseline.
func NewHawkEye(cfg HawkEyeConfig) (*HawkEye, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ram, err := newUnitRAM(cfg.HugePageSize, cfg.TLBEntries, cfg.RAMPages, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return &HawkEye{unitRAM: ram, cfg: cfg, hotness: dense.NewTable[uint64](0, 0)}, nil
}

// Access implements Algorithm.
func (m *HawkEye) Access(v uint64) {
	m.costs.Accesses++
	r := v >> m.shift
	hot := m.hotness.At(r)
	if hot == 0 {
		m.touched = append(m.touched, r)
	}
	m.hotness.Set(r, hot+1)

	m.translate(m.tlb, m.touch(v))

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

// AccessBatch implements Batcher.
func (m *HawkEye) AccessBatch(vs []uint64) {
	for _, v := range vs {
		m.Access(v)
	}
}

// ResetCosts implements Algorithm.
func (m *HawkEye) ResetCosts() { m.resetMeter() }

// Name implements Algorithm.
func (m *HawkEye) Name() string {
	return fmt.Sprintf("hawkeye(h=%d,budget=%d/epoch)", m.cfg.HugePageSize, m.cfg.PromoteBudget)
}
