package experiments

import (
	"fmt"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// Related compares the Section 7 TLB-coverage designs that *rely on
// physical contiguity when it happens to exist* — coalesced TLBs (CoLT)
// and direct segments — against classical paging and huge-page
// decoupling, on a workload mixing a sequential primary region (where
// contiguity arises naturally) with scattered accesses (where it does
// not). The paper's point: decoupling needs no contiguity at all.
func Related(s Scale, seed uint64) (*Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	m := relatedMachine(s, seed)
	vPages, ramPages, entries := m.virtualPages, m.ramPages, m.tlbEntries

	plain, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 1, TLBEntries: entries, RAMPages: ramPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	co, err := mm.NewCoalesced(mm.CoalescedConfig{
		CoalesceLimit: 8, TLBEntries: entries, RAMPages: ramPages, VirtualPages: vPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	// The segment is pinned RAM; cap it at half of RAM so conventional
	// paging keeps enough frames at aggressive scales.
	segPages := vPages / 4
	if segPages > ramPages/2 {
		segPages = ramPages / 2
	}
	ds, err := mm.NewDirectSegment(mm.DirectSegmentConfig{
		SegmentStart: 0, SegmentPages: segPages, TLBEntries: entries,
		RAMPages: ramPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc: core.IcebergAlloc, RAMPages: ramPages, VirtualPages: vPages,
		TLBEntries: entries, ValueBits: 64, Seed: seed,
	})
	if err != nil {
		return nil, err
	}

	algos := []mm.Algorithm{plain, co, ds, z}
	if err := joinRow(m.runRow(s, algos)); err != nil {
		return nil, err
	}

	t := &Table{
		Name: "e7-related",
		Caption: fmt.Sprintf(
			"Section 7 contiguity-dependent TLB designs vs decoupling (60%% sequential primary region + 40%% scattered; V=%d, RAM=%d, TLB=%d, ε=0.01)",
			vPages, ramPages, entries),
		Columns: []string{"algo", "ios", "tlb_misses", "total_cost", "notes"},
	}
	for _, a := range algos {
		c := a.Costs()
		notes := "-"
		switch v := a.(type) {
		case *mm.Coalesced:
			notes = fmt.Sprintf("coalesced_fills=%d single_fills=%d", v.CoalescedFills(), v.SingleFills())
		case *mm.DirectSegment:
			notes = fmt.Sprintf("segment_accesses=%d", v.SegmentAccesses())
		case *mm.Decoupled:
			notes = fmt.Sprintf("hmax=%d failures=%d", v.Params().HMax, v.Scheme().TotalFailures())
		}
		t.AddRow(a.Name(), c.IOs, c.TLBMisses, c.Total(paperEpsilon), notes)
	}
	return t, nil
}

// relatedMachine builds e7's row. The application prefaults its primary
// region (one quarter of VA) with a sequential initialization pass —
// which is what hands CoLT its physical contiguity — then runs
// steady-state traffic: 60% sequential scanning of the primary region,
// 40% uniform over the rest of the space. The warmup window is the
// prefault pass plus n mixed accesses, the measured window n more.
func relatedMachine(s Scale, seed uint64) *fig1Machine {
	vPages := s.pages(8 * paperGiB)
	n := s.accesses(20_000_000)
	return &fig1Machine{
		row:          "e7-mixed",
		virtualPages: vPages,
		ramPages:     s.pages(4 * paperGiB),
		tlbEntries:   s.entries(paperTLBEntries, 16),
		warmupN:      int(vPages/4) + n,
		measuredN:    n,
		newGen: func() (workload.Generator, error) {
			seg, err := workload.NewSequential(vPages / 4)
			if err != nil {
				return nil, err
			}
			rest, err := workload.NewUniform(vPages-vPages/4, seed)
			if err != nil {
				return nil, err
			}
			return &relatedMix{primary: vPages / 4, seg: seg, rest: rest, r: mixRNG{state: seed ^ 0x5eed}}, nil
		},
	}
}

// relatedMix is e7's request stream: the prefault pass over the primary
// region [0, primary), then the 60/40 mix of sequential primary-region
// scans and uniform accesses over the rest of the space.
type relatedMix struct {
	prefaulted uint64 // prefault pages issued so far
	primary    uint64
	seg        *workload.Sequential
	rest       *workload.Uniform
	r          mixRNG
}

func (g *relatedMix) Next() uint64 {
	if g.prefaulted < g.primary {
		g.prefaulted++
		return g.prefaulted - 1
	}
	if g.r.next()%10 < 6 {
		return g.seg.Next()
	}
	return g.primary + g.rest.Next()
}

func (g *relatedMix) Name() string { return "e7-mixed" }

// mixRNG is a tiny local splitmix stream for the 60/40 mixing decisions,
// separate from the tenant generators' own streams.
type mixRNG struct{ state uint64 }

func (m *mixRNG) next() uint64 {
	m.state += 0x9e3779b97f4a7c15
	z := m.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return z
}
