package mm

import (
	"fmt"

	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// NestedConfig configures the virtualized-translation baseline from the
// paper's introduction: in cloud environments every memory reference
// undergoes two translations — guest virtual → guest physical, then guest
// physical → host physical — which "squares the cost of a TLB miss in the
// worst case". This algorithm models the two-level structure directly: a
// guest TLB over guest pages and a host TLB over guest-physical pages,
// with paging at the host level.
type NestedConfig struct {
	// GuestHugePageSize and HostHugePageSize are the per-level huge-page
	// sizes (powers of two ≥ 1).
	GuestHugePageSize uint64
	HostHugePageSize  uint64
	// GuestTLBEntries and HostTLBEntries size the two TLBs.
	GuestTLBEntries int
	HostTLBEntries  int
	// RAMPages sizes host physical memory.
	RAMPages uint64
	Seed     uint64
}

func (c *NestedConfig) validate() error {
	for _, h := range []uint64{c.GuestHugePageSize, c.HostHugePageSize} {
		if h == 0 || h&(h-1) != 0 {
			return fmt.Errorf("mm: nested huge-page sizes must be powers of two ≥ 1")
		}
	}
	if c.GuestTLBEntries <= 0 || c.HostTLBEntries <= 0 {
		return fmt.Errorf("mm: nested TLB entry counts must be positive")
	}
	if c.RAMPages < c.HostHugePageSize {
		return fmt.Errorf("mm: RAM smaller than one host huge page")
	}
	return nil
}

// Nested is the two-level translation baseline. The guest maps its
// virtual pages 1:1 onto guest-physical pages (an identity guest layout,
// the common static-partitioning case), so the interesting dynamics are
// the two TLBs and host paging:
//
//   - guest TLB miss: cost ε, and the guest page-table walk itself
//     touches memory through the *host* TLB — the nested-walk
//     amplification. We model the walk as one extra host-TLB reference,
//     the first-order term of the quadratic blowup.
//   - host TLB miss: cost ε.
//   - host page fault: h_host IOs.
type Nested struct {
	cfg      NestedConfig
	guestTLB *tlb.TLB
	hostTLB  *tlb.TLB
	hostRAM  policy.Policy

	costs          Costs
	ex             *explain.Counters
	nestedWalkRefs uint64 // extra host references caused by guest misses
}

// Nested explain-classifier keyspace: guest entries tagged 0, host tagged 1
// (the two TLBs have independent keyspaces).
func nestedGuestKey(gu uint64) uint64 { return gu << 1 }
func nestedHostKey(hu uint64) uint64  { return hu<<1 | 1 }

var _ Algorithm = (*Nested)(nil)

// NewNested builds the two-level baseline.
func NewNested(cfg NestedConfig) (*Nested, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g, err := tlb.New(cfg.GuestTLBEntries, policy.LRUKind, cfg.Seed)
	if err != nil {
		return nil, err
	}
	h, err := tlb.New(cfg.HostTLBEntries, policy.LRUKind, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	frames := int(cfg.RAMPages / cfg.HostHugePageSize)
	ram, err := policy.New(policy.LRUKind, frames, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	return &Nested{cfg: cfg, guestTLB: g, hostTLB: h, hostRAM: ram}, nil
}

// hostReference translates one guest-physical page through the host TLB
// and host RAM, accruing costs.
func (n *Nested) hostReference(gpa uint64) {
	hu := gpa / n.cfg.HostHugePageSize
	if hit, victim := n.hostRAM.Access(hu); !hit {
		n.costs.IOs += n.cfg.HostHugePageSize
		n.ex.DemandIO()
		n.ex.AmplifiedIO(n.cfg.HostHugePageSize - 1)
		if victim != policy.NoEviction {
			n.ex.Evict()
		}
	}
	if !n.hostTLB.Lookup(hu) {
		n.costs.TLBMisses++
		n.ex.TLBMiss(nestedHostKey(hu))
		n.hostTLB.Insert(hu)
	}
}

// Access implements Algorithm. v is a guest-virtual page; with the
// identity guest layout, gpa = v.
func (n *Nested) Access(v uint64) {
	n.costs.Accesses++
	gu := v / n.cfg.GuestHugePageSize
	if !n.guestTLB.Lookup(gu) {
		n.costs.TLBMisses++
		n.ex.TLBMiss(nestedGuestKey(gu))
		n.guestTLB.Insert(gu)
		// The guest page-table walk reads guest-physical memory: one
		// extra host reference (to the guest's page-table page, which we
		// place alongside the data region).
		walkPage := v/512 + 1<<62 // page-table pages live in their own region
		n.nestedWalkRefs++
		n.ex.NestedWalk()
		n.hostReference(walkPage)
	}
	n.hostReference(v)
}

// AccessBatch implements Batcher.
func (n *Nested) AccessBatch(vs []uint64) {
	for _, v := range vs {
		n.Access(v)
	}
}

// Costs implements Algorithm.
func (n *Nested) Costs() Costs { return n.costs }

// ResetCosts implements Algorithm.
func (n *Nested) ResetCosts() {
	n.costs = Costs{}
	n.ex.Reset()
	n.guestTLB.ResetCounters()
	n.hostTLB.ResetCounters()
	n.nestedWalkRefs = 0
}

// EnableExplain implements Explainer.
func (n *Nested) EnableExplain() {
	if n.ex == nil {
		n.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (n *Nested) Explain() *explain.Counters { return n.ex }

// ExplainGauges implements Gauger: host RAM occupancy and the combined
// reach of the two TLB levels.
func (n *Nested) ExplainGauges() (explain.Gauges, bool) {
	h := n.cfg.HostHugePageSize
	g := occupancyGauges(uint64(n.hostRAM.Len())*h, n.cfg.RAMPages)
	g.CoveragePages = h
	g.TLBReachPages = n.guestTLB.Reach(n.cfg.GuestHugePageSize) + n.hostTLB.Reach(h)
	return g, true
}

// Name implements Algorithm. It carries the guest/host TLB split, so
// configurations that differ only in the split stay distinguishable.
func (n *Nested) Name() string {
	return fmt.Sprintf("nested(hg=%d,hh=%d,guest=%d,host=%d)", n.cfg.GuestHugePageSize,
		n.cfg.HostHugePageSize, n.cfg.GuestTLBEntries, n.cfg.HostTLBEntries)
}

// NestedWalkRefs reports how many extra host references guest TLB misses
// caused.
func (n *Nested) NestedWalkRefs() uint64 { return n.nestedWalkRefs }
