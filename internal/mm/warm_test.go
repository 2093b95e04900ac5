package mm

import (
	"reflect"
	"testing"

	"addrxlat/internal/policy"
	"addrxlat/internal/workload"
)

// TestHugePageWarmMatchesAccessBatch pins Warm against AccessBatch. A
// simulator warmed through Warm and a twin warmed through AccessBatch,
// over the same chunks, must agree after ResetCosts on everything the
// measured window charges: the costs of a window of batch and single
// accesses, the attribution when armed, and the occupancies. The
// stamped path (merged LRU/LRU, unarmed, unread) must count the
// warm-up's accesses and charge nothing else; every fallback — armed
// attribution, non-LRU policies, the composed path, and a simulator
// accessed before its warm-up — must charge exactly what AccessBatch
// charges.
func TestHugePageWarmMatchesAccessBatch(t *testing.T) {
	cases := []struct {
		name      string
		cfg       HugePageConfig
		armed     bool
		preAccess bool // one Access before the warm-up
		stamps    bool
	}{
		{name: "h1", cfg: HugePageConfig{HugePageSize: 1, TLBEntries: 16, RAMPages: 512}, stamps: true},
		{name: "h64", cfg: HugePageConfig{HugePageSize: 64, TLBEntries: 16, RAMPages: 8192}, stamps: true},
		{name: "tlb over frames", cfg: HugePageConfig{HugePageSize: 1024, TLBEntries: 16, RAMPages: 8192}, stamps: true},
		{name: "armed", cfg: HugePageConfig{HugePageSize: 8, TLBEntries: 16, RAMPages: 1024}, armed: true},
		{name: "accessed", cfg: HugePageConfig{HugePageSize: 8, TLBEntries: 16, RAMPages: 1024}, preAccess: true},
		{name: "fifo ram", cfg: HugePageConfig{HugePageSize: 4, TLBEntries: 16, RAMPages: 1024, RAMPolicy: policy.FIFOKind}},
		{name: "clock tlb", cfg: HugePageConfig{HugePageSize: 4, TLBEntries: 16, RAMPages: 1024, TLBPolicy: policy.ClockKind}},
		{name: "composed", cfg: HugePageConfig{HugePageSize: 4, TLBEntries: 16, RAMPages: 1024, disableMergedLRU: true}},
	}
	for _, c := range cases {
		for seed := uint64(1); seed <= 3; seed++ {
			gen, err := workload.NewBimodal(300, 1<<14, 0.95, seed)
			if err != nil {
				t.Fatal(err)
			}
			warm, measured := workload.Take(gen, 40000), workload.Take(gen, 20000)
			cfg := c.cfg
			cfg.Seed = seed
			warmed, err := NewHugePage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := NewHugePage(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.armed {
				warmed.EnableExplain()
				batched.EnableExplain()
			}
			if c.preAccess {
				warmed.Access(warm[0])
				batched.Access(warm[0])
			}
			pre := warmed.Costs()
			for lo := 0; lo < len(warm); lo += 1000 + lo%777 {
				chunk := warm[lo:min(lo+1000+lo%777, len(warm))]
				warmed.Warm(chunk)
				batched.AccessBatch(chunk)
			}
			got, want := warmed.Costs(), batched.Costs()
			if c.stamps {
				want = Costs{Accesses: pre.Accesses + uint64(len(warm))}
			}
			if got != want {
				t.Fatalf("%s seed %d: warm-up costs through Warm %v, want %v (stamped: %v)", c.name, seed, got, want, c.stamps)
			}

			for _, a := range []*HugePage{warmed, batched} {
				a.ResetCosts()
				a.AccessBatch(measured[:len(measured)/2])
				for _, v := range measured[len(measured)/2:] {
					a.Access(v)
				}
			}
			if g, w := warmed.Costs(), batched.Costs(); g != w {
				t.Fatalf("%s seed %d: measured costs after Warm %v, after AccessBatch %v", c.name, seed, g, w)
			}
			if g, w := warmed.Explain().Snapshot(), batched.Explain().Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s seed %d: measured attribution after Warm %+v, after AccessBatch %+v", c.name, seed, g, w)
			}
			if warmed.TLBLen() != batched.TLBLen() || warmed.ResidentHugePages() != batched.ResidentHugePages() {
				t.Fatalf("%s seed %d: occupancy after Warm (%d TLB, %d RAM), after AccessBatch (%d, %d)", c.name, seed,
					warmed.TLBLen(), warmed.ResidentHugePages(), batched.TLBLen(), batched.ResidentHugePages())
			}
		}
	}
}
