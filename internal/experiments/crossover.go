package experiments

import (
	"fmt"

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
	hs := HugePageSweep()
	for _, w := range []Fig1Workload{F1aBimodal, F1bGraphWalk, F1cGraph500} {
		machine, err := buildFig1Machine(w, s, seed)
		if err != nil {
			return nil, err
		}
		z, err := mm.NewDecoupled(machine.zConfig())
		if err != nil {
			return nil, err
		}

		// Row 1: the fixed-h sweep and the decoupled algorithm share one
		// cached row (Figure 1's h-cells, so x1 after f1a simulates Z
		// alone). Z is built up front: its name carries the derived hmax,
		// which also sets row 2's group size.
		cells := machine.hugePageCells()
		nh := len(cells)
		cells = append(cells, cell{z.Name(), func() (mm.Algorithm, error) { return z, nil }})
		costs, cellErrs, err := machine.runCachedRow(s, cells)
		if err != nil {
			return nil, err
		}
		// The decoupled cell anchors two table rows, so its failure is
		// fatal for the experiment; poisoned fixed-h cells drop out of the
		// best-h contest with a footnote.
		if err := cellErrs[nh]; err != nil {
			return nil, err
		}
		zc := costs[nh]
		bestIdx := -1
		for i := range nh {
			if cellErrs[i] != nil {
				t.AddNote("%s: fixed-h cell h=%d failed: %v", w, hs[i], cellErrs[i])
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
			hy, err := mm.NewHybrid(mm.HybridConfig{Decoupled: machine.zConfig(), GroupSize: g})
			if err != nil {
				return nil, err
			}
			hyName = hy.Name()
			c, errs, err := machine.runCachedRow(s, []cell{{hyName, func() (mm.Algorithm, error) { return hy, nil }}})
			if err := joinRow(errs, err); err != nil {
				return nil, err
			}
			hyc = c[0]
		}

		bc := costs[bestIdx]
		t.AddRow(string(w), fmt.Sprintf("best-fixed(h=%d)", hs[bestIdx]),
			bc.IOs, bc.TLBMisses, bc.Total(paperEpsilon))
		t.AddRow(string(w), z.Name(), zc.IOs, zc.TLBMisses, zc.Total(paperEpsilon))
		t.AddRow(string(w), hyName, hyc.IOs, hyc.TLBMisses, hyc.Total(paperEpsilon))
	}
	return t, nil
}
