package experiments

import (
	"fmt"

	"addrxlat/internal/mm"
	"addrxlat/internal/policy"
	"addrxlat/internal/workload"
)

// Tenants quantifies the introduction's shared-TLB observation: as more
// threads/VMs share one TLB, the effective per-tenant capacity shrinks
// and the aggregate miss rate climbs. Each tenant runs an identical
// bimodal workload in its own address space; the merged stream hits one
// shared TLB of fixed size. Each tenant count is a one-cell row: a
// TLB-only simulator (one page per entry) over its own merged stream,
// warmed for nAccesses/2 requests and measured for nAccesses.
func Tenants(s Scale, entries int, hotPages uint64, nAccesses int, seed uint64) (*Table, error) {
	if entries <= 0 || hotPages == 0 || nAccesses <= 0 {
		return nil, fmt.Errorf("experiments: invalid tenants config")
	}
	counts := []int{1, 2, 4, 8, 16}
	t := &Table{
		Name: "e6-tenants",
		Caption: fmt.Sprintf(
			"Shared-TLB contention: miss rate as tenants share a %d-entry TLB (bimodal, hot=%d pages each, %d total accesses)",
			entries, hotPages, nAccesses),
		Columns: []string{"tenants", "tlb_misses", "miss_rate", "effective_entries_per_tenant"},
	}
	var spaceBits uint = 1
	for hotPages*16>>spaceBits != 0 {
		spaceBits++
	}
	shared := make([]*mm.TLBOnly, len(counts))
	err := s.forEach(len(counts), func(ci int) error {
		k := counts[ci]
		m := &fig1Machine{
			row:     fmt.Sprintf("e6-tenants=%d", k),
			warmupN: nAccesses / 2, measuredN: nAccesses,
			newGen: func() (workload.Generator, error) {
				gens := make([]workload.Generator, k)
				for i := range gens {
					g, err := workload.NewBimodal(hotPages, hotPages*16, 0.999, seed+uint64(i)*97)
					if err != nil {
						return nil, err
					}
					gens[i] = g
				}
				return workload.NewInterleave(gens, spaceBits, seed^0x7e7a)
			},
		}
		x, err := mm.NewTLBOnly(1, entries, policy.LRUKind, seed)
		if err != nil {
			return err
		}
		shared[ci] = x
		return joinRow(m.runRow(s, []mm.Algorithm{x}))
	})
	if err != nil {
		return nil, err
	}
	for i, k := range counts {
		misses := shared[i].Costs().TLBMisses
		t.AddRow(k, misses, float64(misses)/float64(nAccesses), entries/k)
	}
	return t, nil
}
