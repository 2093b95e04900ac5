package mm

import (
	"testing"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/tlb"
)

// TestGeometryReachIsCachedSet checks each TLB organization's reach gauge
// against the set of pages it caches, counted key by key after every
// chunk of a short stream. Each entry covers one page, so the two agree.
// For two-level a page cached in L1 counts even after L2 dropped it, and
// the stream must reach that case (reach above the L2 size).
func TestGeometryReachIsCachedSet(t *testing.T) {
	const entries, pages = 64, 512
	for _, cfg := range []GeometryConfig{
		{Geometry: GeometryFull, Entries: entries},
		{Geometry: GeometrySetAssoc, Entries: entries, Ways: 4},
		{Geometry: GeometryTwoLevel, Entries: entries},
	} {
		cfg.RAMPages, cfg.Seed = 256, 3
		g, err := NewGeometry(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var cached func(page uint64) bool
		switch c := g.cache.(type) {
		case *tlb.TLB:
			cached = c.Contains
		case *tlb.SetAssociative:
			cached = c.Contains
		case *tlb.TwoLevel:
			cached = func(page uint64) bool { return c.L1().Contains(page) || c.L2().Contains(page) }
		default:
			t.Fatalf("%s: unexpected cache %T", g.Name(), c)
		}
		r := hashutil.NewRNG(11)
		chunk := make([]uint64, 256)
		var maxReach uint64
		for round := 0; round < 40; round++ {
			for i := range chunk {
				if i%2 == 0 {
					// Pages 0 and 1 alternate with cold pages, so every
					// reference to them hits L1 and their L2 entries age
					// out behind the cold stream.
					chunk[i] = uint64(i/2) % 2
				} else {
					chunk[i] = r.Uint64n(pages)
				}
			}
			g.AccessBatch(chunk)
			var want uint64
			for p := uint64(0); p < pages; p++ {
				if cached(p) {
					want++
				}
			}
			gg, _ := g.ExplainGauges()
			if gg.TLBReachPages != want {
				t.Fatalf("%s round %d: reach %d, cached pages %d", g.Name(), round, gg.TLBReachPages, want)
			}
			maxReach = max(maxReach, want)
		}
		if maxReach == 0 || maxReach > entries+entries/16 {
			t.Fatalf("%s: max reach %d outside (0, %d]", g.Name(), maxReach, entries+entries/16)
		}
		if cfg.Geometry == GeometryTwoLevel && maxReach <= entries {
			t.Fatalf("%s: stream never left a page cached in L1 only (max reach %d)", g.Name(), maxReach)
		}
	}
}
