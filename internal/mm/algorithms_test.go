package mm

import (
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
)

// allAlgorithms builds one instance of every Algorithm implementation on
// a comparable small machine, for table-driven property tests.
func allAlgorithms(t testing.TB, seed uint64) []Algorithm {
	t.Helper()
	const (
		ram     = 1 << 12
		vspace  = 1 << 16
		entries = 64
	)
	var algos []Algorithm
	add := func(a Algorithm, err error) {
		if err != nil {
			t.Fatal(err)
		}
		algos = append(algos, a)
	}
	add(NewHugePage(HugePageConfig{HugePageSize: 1, TLBEntries: entries, RAMPages: ram, Seed: seed}))
	add(NewHugePage(HugePageConfig{HugePageSize: 64, TLBEntries: entries, RAMPages: ram, Seed: seed}))
	add(NewDecoupled(DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: ram, VirtualPages: vspace, TLBEntries: entries, ValueBits: 64, Seed: seed}))
	add(NewHybrid(HybridConfig{Decoupled: DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: ram, VirtualPages: vspace, TLBEntries: entries, ValueBits: 64, Seed: seed}, GroupSize: 4}))
	add(NewTHP(THPConfig{HugePageSize: 16, TLBEntries: entries, RAMPages: ram, Seed: seed}))
	add(NewSuperpage(SuperpageConfig{HugePageSize: 16, TLBEntries: entries, RAMPages: ram, Seed: seed}))
	add(NewHawkEye(HawkEyeConfig{HugePageSize: 16, TLBEntries: entries, RAMPages: ram, Seed: seed}))
	add(NewNested(NestedConfig{GuestHugePageSize: 1, HostHugePageSize: 1, GuestTLBEntries: entries / 2, HostTLBEntries: entries / 2, RAMPages: ram, Seed: seed}))
	add(NewDirectSegment(DirectSegmentConfig{SegmentStart: 0, SegmentPages: ram / 4, TLBEntries: entries, RAMPages: ram, Seed: seed}))
	add(NewCoalesced(CoalescedConfig{CoalesceLimit: 4, TLBEntries: entries, RAMPages: ram, VirtualPages: vspace, Seed: seed}))
	add(NewGeometry(GeometryConfig{Geometry: GeometrySetAssoc, Entries: entries, Ways: 4, RAMPages: ram, Seed: seed}))
	add(NewTLBOnly(8, entries, "lru", seed))
	add(NewRAMOnly(ram, "lru", seed))
	add(NewMultiCore(MultiCoreConfig{Cores: 4, TLBEntriesEach: entries / 4, HugePageSize: 4, RAMPages: ram, Seed: seed}))
	return algos
}

// TestAlgorithmsGenericProperties checks contract properties every
// Algorithm must satisfy: exact access counting, monotone counters,
// clean counter reset with preserved state, and per-seed determinism.
func TestAlgorithmsGenericProperties(t *testing.T) {
	mkReqs := func() []uint64 {
		r := hashutil.NewRNG(99)
		reqs := make([]uint64, 30000)
		for i := range reqs {
			if r.Float64() < 0.8 {
				reqs[i] = r.Uint64n(1 << 10)
			} else {
				reqs[i] = r.Uint64n(1 << 15)
			}
		}
		return reqs
	}
	reqs := mkReqs()
	for i, a := range allAlgorithms(t, 5) {
		a := a
		name := a.Name()
		t.Run(name, func(t *testing.T) {
			prev := Costs{}
			for step, v := range reqs {
				a.Access(v)
				c := a.Costs()
				if c.Accesses != uint64(step)+1 {
					t.Fatalf("step %d: accesses = %d", step, c.Accesses)
				}
				if c.IOs < prev.IOs || c.TLBMisses < prev.TLBMisses ||
					c.DecodingMisses < prev.DecodingMisses {
					t.Fatalf("step %d: counters decreased: %+v -> %+v", step, prev, c)
				}
				prev = c
			}
			mid := a.Costs()
			a.ResetCosts()
			if c := a.Costs(); c != (Costs{}) {
				t.Fatalf("reset left %+v", c)
			}
			// State persists across reset: replaying warm traffic must
			// cost no more than the cold run did.
			for _, v := range reqs {
				a.Access(v)
			}
			if c := a.Costs(); c.IOs > mid.IOs {
				t.Fatalf("warm replay cost more IOs (%d) than cold run (%d)", c.IOs, mid.IOs)
			}

			// Determinism: a fresh twin on the same seed and requests
			// produces identical counters.
			twin := allAlgorithms(t, 5)[i]
			fresh := allAlgorithms(t, 5)[i]
			for _, v := range reqs {
				twin.Access(v)
				fresh.Access(v)
			}
			if twin.Costs() != fresh.Costs() {
				t.Fatalf("nondeterministic: %+v vs %+v", twin.Costs(), fresh.Costs())
			}
		})
	}
}

// TestAlgorithmsNamesDistinct ensures every algorithm identifies itself
// uniquely (tables key on names).
func TestAlgorithmsNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range allAlgorithms(t, 1) {
		if a.Name() == "" {
			t.Fatalf("%T has empty name", a)
		}
		if seen[a.Name()] {
			t.Fatalf("duplicate name %q", a.Name())
		}
		seen[a.Name()] = true
	}
}
