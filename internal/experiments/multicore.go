package experiments

import (
	"fmt"

	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// MultiCoreStudy quantifies the per-core flavor of the introduction's
// TLB-pressure trend: splitting a fixed silicon budget of TLB entries
// across more cores (while the cores share one working set) inflates
// total TLB misses. Shootdowns are counted too, though at this geometry
// none occur (EXPERIMENTS.md E10). Each core count is a one-cell row: a
// MultiCore over a uniform stream on the shared working set, requests
// dealt to the cores round-robin, warmed for nAccesses/2 requests and
// measured for nAccesses.
func MultiCoreStudy(s Scale, totalEntries int, workingSet uint64, nAccesses int, seed uint64) (*Table, error) {
	if totalEntries <= 0 || workingSet == 0 || nAccesses <= 0 {
		return nil, fmt.Errorf("experiments: invalid multicore config")
	}
	coreCounts := []int{1, 2, 4, 8, 16}
	t := &Table{
		Name: "e10-multicore",
		Caption: fmt.Sprintf(
			"Per-core TLBs: misses and shootdowns as %d total entries split across cores (shared %d-page working set, %d accesses)",
			totalEntries, workingSet, nAccesses),
		Columns: []string{"cores", "entries_per_core", "tlb_misses", "miss_rate", "shootdowns"},
	}
	sims := make([]*mm.MultiCore, len(coreCounts))
	err := s.forEach(len(coreCounts), func(i int) error {
		cores := coreCounts[i]
		m, err := mm.NewMultiCore(mm.MultiCoreConfig{
			Cores: cores, TLBEntriesEach: max(totalEntries/cores, 1), HugePageSize: 1,
			RAMPages: workingSet / 2, Seed: seed,
		})
		if err != nil {
			return err
		}
		sims[i] = m
		// MultiCore's core cursor keeps counting across the warmup reset.
		// The registry's warmup length, 10^6 requests, is a multiple of
		// every core count, so the measured window starts on core 0, as if
		// the round-robin restarted with the measurement.
		row := &fig1Machine{
			row:     fmt.Sprintf("e10-cores=%d", cores),
			warmupN: nAccesses / 2, measuredN: nAccesses,
			newGen: func() (workload.Generator, error) {
				return workload.NewUniform(workingSet, seed^uint64(cores)*131)
			},
		}
		return joinRow(row.runRow(s, []mm.Algorithm{m}))
	})
	if err != nil {
		return nil, err
	}
	for i, cores := range coreCounts {
		misses := sims[i].Costs().TLBMisses
		t.AddRow(cores, totalEntries/cores, misses,
			fmt.Sprintf("%.4f", float64(misses)/float64(nAccesses)), sims[i].Shootdowns())
	}
	return t, nil
}
