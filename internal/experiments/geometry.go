package experiments

import (
	"fmt"

	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// TLBGeometryStudy quantifies what the paper's fully-associative TLB
// simplification (footnote 1) hides: miss rates under real hardware
// organizations — direct-mapped through fully associative, plus an L1/L2
// hierarchy — at equal total entry count, in two regimes:
//
//   - "fits": uniform working set at 3/4 of the entry count, where
//     conflict misses are the whole story (a fully associative TLB has
//     only cold misses);
//   - "thrash": working set at 4× the entry count, where capacity misses
//     dominate and organizations converge — the regime of the paper's
//     Section 6 workloads, justifying its simplification there.
func TLBGeometryStudy(s Scale, seed uint64) (*Table, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	entries := s.entries(paperTLBEntries, 16)
	for entries&(entries-1) != 0 {
		entries--
	}
	accesses := s.accesses(20_000_000)
	ramPages := uint64(entries) * 64 // ample: isolate TLB behavior

	// One row per regime: a uniform stream over the regime's working set,
	// shared by the five organizations as the row's cells.
	regime := func(row string, pages, wseed uint64) *fig1Machine {
		return &fig1Machine{row: row, warmupN: accesses, measuredN: accesses,
			newGen: func() (workload.Generator, error) { return workload.NewUniform(pages, wseed) }}
	}
	regimes := []*fig1Machine{
		regime("e9-fits", uint64(entries)*3/4, seed),
		regime("e9-thrash", uint64(entries)*4, seed+1),
	}

	type variant struct {
		name string
		cfg  mm.GeometryConfig
	}
	variants := []variant{
		{"direct-mapped", mm.GeometryConfig{Geometry: mm.GeometrySetAssoc, Entries: entries, Ways: 1, RAMPages: ramPages, Seed: seed}},
		{"4-way", mm.GeometryConfig{Geometry: mm.GeometrySetAssoc, Entries: entries, Ways: 4, RAMPages: ramPages, Seed: seed}},
		{"8-way", mm.GeometryConfig{Geometry: mm.GeometrySetAssoc, Entries: entries, Ways: 8, RAMPages: ramPages, Seed: seed}},
		{"fully-assoc", mm.GeometryConfig{Geometry: mm.GeometryFull, Entries: entries, RAMPages: ramPages, Seed: seed}},
		{"two-level", mm.GeometryConfig{Geometry: mm.GeometryTwoLevel, Entries: entries, RAMPages: ramPages, Seed: seed}},
	}
	// results[r][i] is organization i's measured counters in regime r.
	results := make([][]mm.Costs, len(regimes))
	for r, m := range regimes {
		sims := make([]mm.Algorithm, len(variants))
		for i, v := range variants {
			a, err := mm.NewGeometry(v.cfg)
			if err != nil {
				return nil, err
			}
			sims[i] = a
		}
		if err := joinRow(m.runRow(s, sims)); err != nil {
			return nil, err
		}
		results[r] = make([]mm.Costs, len(sims))
		for i, a := range sims {
			results[r][i] = a.Costs()
		}
	}
	t := &Table{
		Name: "e9-tlb-geometry",
		Caption: fmt.Sprintf(
			"TLB organization vs miss rate at %d total entries: conflict-dominated (working set %d) vs capacity-dominated (working set %d) regimes",
			entries, entries*3/4, entries*4),
		Columns: []string{"organization", "fits_miss_rate", "thrash_miss_rate"},
	}
	for i, v := range variants {
		f, th := results[0][i], results[1][i]
		t.AddRow(v.name,
			fmt.Sprintf("%.5f", float64(f.TLBMisses)/float64(f.Accesses)),
			fmt.Sprintf("%.5f", float64(th.TLBMisses)/float64(th.Accesses)))
	}
	return t, nil
}
