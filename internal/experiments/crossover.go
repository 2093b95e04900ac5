package experiments

import (
	"fmt"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
)

// Crossover is the headline summary table: for each Section 6 workload,
// find the best *fixed* huge-page size h (minimizing total cost at ε) by
// sweeping the full Figure 1 range, and set it against the decoupled
// algorithm and the Section 8 hybrid. The paper's thesis in one table:
// even the best achievable fixed h pays for its coverage in IOs (or vice
// versa), while decoupling takes both columns at once.
//
// Each workload runs as one streaming row (the fixed-h sweep plus the
// decoupled algorithm share every generated chunk); the hybrid, whose
// group size depends on the winning h, replays a second identically
// seeded stream.
func Crossover(s Scale, seed uint64) (*Table, error) {
	t := &Table{
		Name: "x1-crossover",
		Caption: fmt.Sprintf(
			"Best fixed huge-page size vs decoupling, total cost at ε=%.2g", paperEpsilon),
		Columns: []string{"workload", "algo", "ios", "tlb_misses", "total_cost"},
	}
	for _, w := range []Fig1Workload{F1aBimodal, F1bGraphWalk, F1cGraph500} {
		machine, err := buildFig1Machine(w, s, seed)
		if err != nil {
			return nil, err
		}
		zCfg := mm.DecoupledConfig{
			Alloc: core.IcebergAlloc, RAMPages: machine.ramPages,
			VirtualPages: machine.virtualPages, TLBEntries: machine.tlbEntries,
			ValueBits: 64, Seed: seed,
		}
		z, err := mm.NewDecoupled(zCfg)
		if err != nil {
			return nil, err
		}

		// Row 1: the fixed-h sweep and the decoupled algorithm share one
		// stream; cells already in the cache stay out of the row.
		hs := HugePageSweep()
		costs := make([]mm.Costs, len(hs))
		valid := make([]bool, len(hs))
		var (
			sims    []mm.Algorithm
			simIdx  []int
			simKeys []string
		)
		for i, h := range hs {
			if machine.ramPages < h {
				continue
			}
			valid[i] = true
			key := machine.cellKey(s, seed, fmt.Sprintf("hugepage(h=%d,lru/lru)", h))
			if c, ok := cacheGet[mm.Costs](s, key); ok {
				costs[i] = c
				continue
			}
			alg, err := mm.NewHugePage(mm.HugePageConfig{
				HugePageSize: h, TLBEntries: machine.tlbEntries,
				RAMPages: machine.ramPages, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			sims = append(sims, alg)
			simIdx = append(simIdx, i)
			simKeys = append(simKeys, key)
		}
		var zc mm.Costs
		zKey := machine.cellKey(s, seed, z.Name())
		zCached := false
		if c, ok := cacheGet[mm.Costs](s, zKey); ok {
			zc, zCached = c, true
		} else {
			sims = append(sims, z)
		}
		cellErrs, err := machine.runRow(s, sims)
		if err != nil {
			return nil, err
		}
		// Poisoned fixed-h cells drop out of the best-h contest with a
		// footnote; the decoupled cell anchors two table rows, so its
		// failure is fatal for the experiment.
		for j, key := range simKeys {
			if cellErrs[j] != nil {
				valid[simIdx[j]] = false
				t.AddNote("%s: fixed-h cell h=%d failed: %v", w, hs[simIdx[j]], cellErrs[j])
				continue
			}
			costs[simIdx[j]] = sims[j].Costs()
			s.cachePut(key, costs[simIdx[j]])
		}
		if !zCached {
			if zErr := cellErrs[len(simKeys)]; zErr != nil {
				return nil, zErr
			}
			zc = z.Costs()
			s.cachePut(zKey, zc)
		}

		bestIdx := -1
		for i := range hs {
			if !valid[i] {
				continue
			}
			if bestIdx < 0 || costs[i].Total(paperEpsilon) < costs[bestIdx].Total(paperEpsilon) {
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("experiments: no valid fixed h for %s", w)
		}

		// Row 2: the coverage-matched hybrid, on a fresh identically
		// seeded stream (its group size depends on the winner above).
		g := hs[bestIdx] / uint64(z.Params().HMax)
		if g < 1 {
			g = 1
		}
		var hyc mm.Costs
		hyName := "hybrid(-)"
		if machine.ramPages/g >= 1 && machine.virtualPages/g >= 1 {
			hy, err := mm.NewHybrid(mm.HybridConfig{Decoupled: zCfg, GroupSize: g})
			if err != nil {
				return nil, err
			}
			hyName = hy.Name()
			hyKey := machine.cellKey(s, seed, hyName)
			if c, ok := cacheGet[mm.Costs](s, hyKey); ok {
				hyc = c
			} else {
				if err := joinRow(machine.runRow(s, []mm.Algorithm{hy})); err != nil {
					return nil, err
				}
				hyc = hy.Costs()
				s.cachePut(hyKey, hyc)
			}
		}

		bc := costs[bestIdx]
		t.AddRow(string(w), fmt.Sprintf("best-fixed(h=%d)", hs[bestIdx]),
			bc.IOs, bc.TLBMisses, bc.Total(paperEpsilon))
		t.AddRow(string(w), z.Name(), zc.IOs, zc.TLBMisses, zc.Total(paperEpsilon))
		t.AddRow(string(w), hyName, hyc.IOs, hyc.TLBMisses, hyc.Total(paperEpsilon))
	}
	return t, nil
}
