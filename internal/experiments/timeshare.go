package experiments

import (
	"fmt"

	"addrxlat/internal/mm"
	"addrxlat/internal/timing"
)

// counters adapts mm.Costs to the timing package's input.
func counters(c mm.Costs) timing.Counters {
	return timing.Counters{
		Accesses:       c.Accesses,
		TLBMisses:      c.TLBMisses,
		DecodingMisses: c.DecodingMisses,
		IOs:            c.IOs,
	}
}

// TimeShare converts the bimodal workload's cost counters into estimated
// execution-time breakdowns across storage generations, reproducing the
// introduction's motivating trends: (a) translation can consume a large
// share of execution time; (b) faster storage *raises* the relative cost
// of translation; (c) decoupling claws that share back.
func TimeShare(s Scale, seed uint64) (*Table, error) {
	machine, err := buildFig1Machine(F1aBimodal, s, seed)
	if err != nil {
		return nil, err
	}
	h1, err := machine.hugePage(1)
	if err != nil {
		return nil, err
	}
	z, err := mm.NewDecoupled(machine.zConfig())
	if err != nil {
		return nil, err
	}
	hy, err := mm.NewHybrid(mm.HybridConfig{Decoupled: machine.zConfig(), GroupSize: 8})
	if err != nil {
		return nil, err
	}

	// One streaming row: all three simulators share each generated chunk.
	algos := []mm.Algorithm{h1, z, hy}
	if err := joinRow(machine.runRow(s, algos)); err != nil {
		return nil, err
	}
	costs := make([]mm.Costs, len(algos))
	for i, a := range algos {
		costs[i] = a.Costs()
	}

	storages := []struct {
		name  string
		table timing.CostTable
	}{
		{"disk(5ms)", timing.DiskStorage},
		{"nvme(20us)", timing.NVMeStorage},
		{"cxl(1us)", timing.CXLStorage},
	}
	t := &Table{
		Name: "e8-timeshare",
		Caption: "Estimated execution-time breakdown (bimodal workload): address-translation " +
			"share rises as storage gets faster; decoupling claws it back",
		Columns: []string{"algo", "storage", "implied_eps", "at_share", "io_share", "total_mcycles"},
	}
	for i, a := range algos {
		for _, st := range storages {
			b, err := timing.Estimate(counters(costs[i]), st.table)
			if err != nil {
				return nil, err
			}
			t.AddRow(a.Name(), st.name,
				fmt.Sprintf("%.2g", st.table.Epsilon()),
				fmt.Sprintf("%.4f", b.ATFraction()),
				fmt.Sprintf("%.4f", b.IOFraction()),
				b.TotalCycles/1_000_000)
		}
	}
	return t, nil
}
