package mm

import (
	"fmt"

	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
)

// The Theorem 4 statement compares Z against two *separate* optimizers:
// X, which only cares about TLB misses, and Y, which only cares about IOs.
// Lemma 1 reduces each to classical paging. TLBOnly and RAMOnly are those
// side problems as Algorithm instances, so experiment tables can print
// C_TLB(X,σ) and C_IO(Y,σ) next to C(Z,σ).

// TLBOnly is algorithm X: paging over huge-page requests r(p₁),r(p₂),…
// with a cache of ℓ entries. It accrues only TLB-miss costs.
type TLBOnly struct {
	meter
	hmax  uint64
	cache policy.Policy
}

var _ Algorithm = (*TLBOnly)(nil)

// NewTLBOnly builds X with the given huge-page size, TLB entry count and
// replacement policy.
func NewTLBOnly(hmax uint64, entries int, kind policy.Kind, seed uint64) (*TLBOnly, error) {
	if hmax == 0 {
		return nil, fmt.Errorf("mm: hmax must be positive")
	}
	p, err := policy.New(kind, entries, seed)
	if err != nil {
		return nil, err
	}
	return &TLBOnly{hmax: hmax, cache: p}, nil
}

// Access implements Algorithm.
func (x *TLBOnly) Access(v uint64) {
	x.costs.Accesses++
	if hit, _ := x.cache.Access(v / x.hmax); !hit {
		x.tlbMiss(v / x.hmax)
	}
}

// AccessBatch implements Batcher.
func (x *TLBOnly) AccessBatch(vs []uint64) {
	for _, v := range vs {
		x.Access(v)
	}
}

// ResetCosts implements Algorithm.
func (x *TLBOnly) ResetCosts() { x.resetMeter() }

// ExplainGauges implements Algorithm: X holds no RAM, so it has no
// gauges.
func (x *TLBOnly) ExplainGauges() (explain.Gauges, bool) { return explain.Gauges{}, false }

// Name implements Algorithm.
func (x *TLBOnly) Name() string {
	return fmt.Sprintf("tlb-only(hmax=%d,%s)", x.hmax, x.cache.Name())
}

// RAMOnly is algorithm Y: paging over base-page requests with a cache of
// (1−δ)P pages. It accrues only IO costs.
type RAMOnly struct {
	meter
	cache policy.Policy
}

var _ Algorithm = (*RAMOnly)(nil)

// NewRAMOnly builds Y with the given page capacity and policy.
func NewRAMOnly(capacity uint64, kind policy.Kind, seed uint64) (*RAMOnly, error) {
	if capacity == 0 {
		return nil, fmt.Errorf("mm: capacity must be positive")
	}
	p, err := policy.New(kind, int(capacity), seed)
	if err != nil {
		return nil, err
	}
	return &RAMOnly{cache: p}, nil
}

// Access implements Algorithm.
func (y *RAMOnly) Access(v uint64) {
	y.costs.Accesses++
	y.pageIn(y.cache, v, 1)
}

// AccessBatch implements Batcher.
func (y *RAMOnly) AccessBatch(vs []uint64) {
	for _, v := range vs {
		y.Access(v)
	}
}

// ResetCosts implements Algorithm.
func (y *RAMOnly) ResetCosts() { y.resetMeter() }

// ExplainGauges implements Algorithm: Y's occupancy over its own capacity.
func (y *RAMOnly) ExplainGauges() (explain.Gauges, bool) {
	return occupancyGauges(uint64(y.cache.Len()), uint64(y.cache.Cap())), true
}

// Name implements Algorithm.
func (y *RAMOnly) Name() string {
	return fmt.Sprintf("ram-only(%s,cap=%d)", y.cache.Name(), y.cache.Cap())
}
