package mm

import (
	"fmt"

	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// TLBGeometry selects the hardware TLB organization for the Geometry
// algorithm.
type TLBGeometry string

// Supported geometries.
const (
	GeometryFull     TLBGeometry = "full"     // fully associative (the paper's model)
	GeometrySetAssoc TLBGeometry = "setassoc" // sets × ways
	GeometryTwoLevel TLBGeometry = "twolevel" // small L1 + large L2
)

// GeometryConfig configures the TLB-geometry study algorithm: classical
// h=1 paging with a realistic TLB organization, quantifying what the
// paper's fully-associative simplification (footnote 1) hides.
type GeometryConfig struct {
	Geometry TLBGeometry
	// Entries: total TLB entries (for twolevel, the L2 size; L1 gets
	// Entries/16, floored at 4).
	Entries int
	// Ways: associativity for setassoc (ignored otherwise).
	Ways     int
	RAMPages uint64
	Seed     uint64
}

func (c *GeometryConfig) validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("mm: entries must be positive")
	}
	if c.RAMPages == 0 {
		return fmt.Errorf("mm: RAM must be positive")
	}
	switch c.Geometry {
	case GeometryFull, GeometryTwoLevel:
	case GeometrySetAssoc:
		if c.Ways <= 0 || c.Entries%c.Ways != 0 {
			return fmt.Errorf("mm: ways %d must divide entries %d", c.Ways, c.Entries)
		}
	default:
		return fmt.Errorf("mm: unknown geometry %q", c.Geometry)
	}
	return nil
}

// translationCache is the surface the three TLB organizations
// (*tlb.TLB, *tlb.SetAssociative, *tlb.TwoLevel) share for this study.
type translationCache interface {
	Lookup(key uint64) bool
	Insert(key uint64) (victim uint64, evicted bool)
	Len() int
}

// Geometry is the TLB-organization study algorithm.
type Geometry struct {
	meter
	cfg   GeometryConfig
	cache translationCache
	ram   policy.Policy
}

var _ Algorithm = (*Geometry)(nil)

// NewGeometry builds the algorithm.
func NewGeometry(cfg GeometryConfig) (*Geometry, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var cache translationCache
	var err error
	switch cfg.Geometry {
	case GeometryFull:
		cache, err = tlb.New(cfg.Entries, policy.LRUKind, cfg.Seed)
	case GeometrySetAssoc:
		cache, err = tlb.NewSetAssociative(cfg.Entries, cfg.Ways, policy.LRUKind, cfg.Seed)
	case GeometryTwoLevel:
		l1 := max(cfg.Entries/16, 4)
		if l1 >= cfg.Entries {
			return nil, fmt.Errorf("mm: entries %d too small for a two-level split", cfg.Entries)
		}
		cache, err = tlb.NewTwoLevel(l1, cfg.Entries, policy.LRUKind, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	ram, err := policy.New(policy.LRUKind, int(cfg.RAMPages), cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	return &Geometry{cfg: cfg, cache: cache, ram: ram}, nil
}

// Access implements Algorithm.
func (g *Geometry) Access(v uint64) {
	g.costs.Accesses++
	g.pageIn(g.ram, v, 1)
	if !g.cache.Lookup(v) {
		g.tlbMiss(v)
		g.cache.Insert(v)
	}
}

// AccessBatch implements Batcher.
func (g *Geometry) AccessBatch(vs []uint64) {
	for _, v := range vs {
		g.Access(v)
	}
}

// ResetCosts implements Algorithm.
func (g *Geometry) ResetCosts() { g.resetMeter() }

// ExplainGauges implements Algorithm. Each entry covers one page, so the
// TLB reach is the number of distinct pages cached (for two-level, in
// either level).
func (g *Geometry) ExplainGauges() (explain.Gauges, bool) {
	gg := occupancyGauges(uint64(g.ram.Len()), g.cfg.RAMPages)
	gg.CoveragePages = 1
	gg.TLBReachPages = uint64(g.cache.Len())
	return gg, true
}

// Name implements Algorithm.
func (g *Geometry) Name() string {
	if g.cfg.Geometry == GeometrySetAssoc {
		return fmt.Sprintf("geometry(%s,%dx%d)", g.cfg.Geometry, g.cfg.Entries/g.cfg.Ways, g.cfg.Ways)
	}
	return fmt.Sprintf("geometry(%s,%d)", g.cfg.Geometry, g.cfg.Entries)
}
