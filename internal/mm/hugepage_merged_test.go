package mm

import (
	"reflect"
	"testing"

	"addrxlat/internal/workload"
)

// TestHugePageMergedLRUMatchesComposed pins the merged recency-stack fast
// path against the original TLB+RAM composition: identical cost counters,
// explain attribution and occupancy across huge-page sizes, TLB/RAM
// shapes (including TLB larger than the frame count, where the caches
// genuinely diverge), and workloads from cache-friendly to thrashing.
// Attribution is armed on both sides, and the composed path classifies
// each TLB miss through explain.TLBMiss and counts evictions from the RAM
// policy's victims, so it checks the merged path's first-insert count and
// eviction arithmetic independently.
func TestHugePageMergedLRUMatchesComposed(t *testing.T) {
	shapes := []struct {
		h        uint64
		tlb      int
		ramPages uint64
	}{
		{1, 16, 8192},
		{64, 16, 8192},
		{1024, 16, 8192}, // 8 frames < 16 TLB entries: stale TLB translations
		{1, 512, 1024},
		{8, 4, 64},
		{1, 1, 1},
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			gen, err := workload.NewBimodal(256, 1<<15, 0.99, seed)
			if err != nil {
				t.Fatal(err)
			}
			reqs := workload.Take(gen, 30000)

			merged, err := NewHugePage(HugePageConfig{
				HugePageSize: sh.h, TLBEntries: sh.tlb, RAMPages: sh.ramPages, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			composed, err := NewHugePage(HugePageConfig{
				HugePageSize: sh.h, TLBEntries: sh.tlb, RAMPages: sh.ramPages, Seed: seed,
				disableMergedLRU: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if merged.stack == nil || composed.stack != nil {
				t.Fatalf("shape %+v: fast-path selection wrong (merged=%v composed=%v)",
					sh, merged.stack != nil, composed.stack != nil)
			}
			merged.EnableExplain()
			composed.EnableExplain()

			// Interleave batch and single-access servicing to cover both
			// entry points, with a warmup reset in the middle as RunWarm does.
			half := len(reqs) / 2
			merged.AccessBatch(reqs[:half])
			composed.AccessBatch(reqs[:half])
			merged.ResetCosts()
			composed.ResetCosts()
			for _, v := range reqs[half:] {
				merged.Access(v)
				composed.Access(v)
			}

			if merged.Costs() != composed.Costs() {
				t.Fatalf("shape %+v seed %d: merged costs %v != composed costs %v",
					sh, seed, merged.Costs(), composed.Costs())
			}
			if me, ce := merged.Explain().Snapshot(), composed.Explain().Snapshot(); !reflect.DeepEqual(me, ce) {
				t.Fatalf("shape %+v seed %d: merged attribution %+v != composed %+v", sh, seed, me, ce)
			}
			if merged.TLBLen() != composed.TLBLen() {
				t.Fatalf("shape %+v seed %d: TLBLen %d != %d", sh, seed, merged.TLBLen(), composed.TLBLen())
			}
			if merged.ResidentHugePages() != composed.ResidentHugePages() {
				t.Fatalf("shape %+v seed %d: resident %d != %d",
					sh, seed, merged.ResidentHugePages(), composed.ResidentHugePages())
			}
		}
	}
}
