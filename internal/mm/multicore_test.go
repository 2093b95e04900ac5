package mm

import (
	"testing"

	"addrxlat/internal/hashutil"
)

func TestMultiCoreConfigValidation(t *testing.T) {
	bad := []MultiCoreConfig{
		{Cores: 0, TLBEntriesEach: 4, HugePageSize: 1, RAMPages: 64},
		{Cores: 2, TLBEntriesEach: 0, HugePageSize: 1, RAMPages: 64},
		{Cores: 2, TLBEntriesEach: 4, HugePageSize: 3, RAMPages: 64},
		{Cores: 2, TLBEntriesEach: 4, HugePageSize: 128, RAMPages: 64},
	}
	for i, cfg := range bad {
		if _, err := NewMultiCore(cfg); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestMultiCoreSharedRAM(t *testing.T) {
	m, err := NewMultiCore(MultiCoreConfig{
		Cores: 2, TLBEntriesEach: 8, HugePageSize: 1, RAMPages: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 faults page 5 in; core 1's access to it needs no IO (shared
	// RAM) but its own TLB fill.
	m.AccessOn(0, 5)
	c := m.Costs()
	if c.IOs != 1 || c.TLBMisses != 1 {
		t.Fatalf("after first access: %+v", c)
	}
	m.AccessOn(1, 5)
	c = m.Costs()
	if c.IOs != 1 {
		t.Fatalf("core 1 re-faulted a shared-resident page: %+v", c)
	}
	if c.TLBMisses != 2 {
		t.Fatalf("core 1 should take its own TLB miss: %+v", c)
	}
	if m.CoreCosts(0).TLBMisses != 1 || m.CoreCosts(1).TLBMisses != 1 {
		t.Fatal("per-core split wrong")
	}
}

func TestMultiCoreShootdowns(t *testing.T) {
	m, err := NewMultiCore(MultiCoreConfig{
		Cores: 4, TLBEntriesEach: 64, HugePageSize: 1, RAMPages: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All cores share a small hot set; then a scan evicts it, forcing
	// invalidations in every core's TLB.
	for core := 0; core < 4; core++ {
		for v := uint64(0); v < 8; v++ {
			m.AccessOn(core, v)
		}
	}
	if m.Shootdowns() != 0 {
		t.Fatalf("premature shootdowns: %d", m.Shootdowns())
	}
	// Scan past RAM capacity on core 0: evictions invalidate the other
	// cores' cached translations too.
	for v := uint64(100); v < 116; v++ {
		m.AccessOn(0, v)
	}
	if m.Shootdowns() == 0 {
		t.Fatal("evictions caused no shootdowns")
	}
	// Core 3's re-access of an evicted page faults and re-misses its TLB.
	before := m.CoreCosts(3)
	m.AccessOn(3, 0)
	after := m.CoreCosts(3)
	if after.IOs == before.IOs {
		t.Fatal("evicted shared page did not fault")
	}
	if after.TLBMisses == before.TLBMisses {
		t.Fatal("shootdown did not clear core 3's stale entry")
	}
}

func TestMultiCorePanicsOnBadCore(t *testing.T) {
	m, _ := NewMultiCore(MultiCoreConfig{Cores: 2, TLBEntriesEach: 4, HugePageSize: 1, RAMPages: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AccessOn(2, 0)
}

func TestMultiCoreResetAndName(t *testing.T) {
	m, _ := NewMultiCore(MultiCoreConfig{Cores: 2, TLBEntriesEach: 4, HugePageSize: 2, RAMPages: 64})
	r := hashutil.NewRNG(1)
	for i := 0; i < 1000; i++ {
		m.AccessOn(i%2, r.Uint64n(128))
	}
	m.ResetCosts()
	if m.Costs() != (Costs{}) || m.Shootdowns() != 0 {
		t.Fatal("reset incomplete")
	}
	if m.Name() != "multicore(2 cores,h=2)" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestMultiCoreScalingPressure(t *testing.T) {
	// Same aggregate traffic split across more cores with smaller
	// per-core TLBs (fixed total entries) should miss more — the paper's
	// effective-TLB-shrink observation, per-core edition.
	const totalEntries = 64
	run := func(cores int) uint64 {
		m, err := NewMultiCore(MultiCoreConfig{
			Cores: cores, TLBEntriesEach: totalEntries / cores,
			HugePageSize: 1, RAMPages: 1 << 12, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := hashutil.NewRNG(4)
		for i := 0; i < 100000; i++ {
			m.AccessOn(i%cores, r.Uint64n(96))
		}
		return m.Costs().TLBMisses
	}
	m1, m4, m16 := run(1), run(4), run(16)
	if !(m1 <= m4 && m4 <= m16) {
		t.Fatalf("misses not increasing with core split: %d, %d, %d", m1, m4, m16)
	}
	if m16 < m1*2 {
		t.Fatalf("16-way split %d not clearly above single-TLB %d", m16, m1)
	}
}

// TestMultiCoreAccessRoundRobin: Access deals requests to the cores in
// turn, exactly as AccessOn(n%cores) would, so when n is a multiple of the
// core count every core services the same number of requests. The cursor
// keeps its place across ResetCosts.
func TestMultiCoreAccessRoundRobin(t *testing.T) {
	const cores, n = 4, 4000
	cfg := MultiCoreConfig{Cores: cores, TLBEntriesEach: 8, HugePageSize: 1, RAMPages: 64, Seed: 1}
	m, err := NewMultiCore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := NewMultiCore(cfg)
	r := hashutil.NewRNG(2)
	for i := 0; i < n; i++ {
		v := r.Uint64n(256)
		m.Access(v)
		ref.AccessOn(i%cores, v)
	}
	for c := 0; c < cores; c++ {
		if got := m.CoreCosts(c); got.Accesses != n/cores || got != ref.CoreCosts(c) {
			t.Errorf("core %d: %+v, want %d accesses and %+v", c, got, n/cores, ref.CoreCosts(c))
		}
	}
	if m.Costs() != ref.Costs() || m.Shootdowns() != ref.Shootdowns() {
		t.Fatalf("round-robin Access diverged from AccessOn: %+v vs %+v", m.Costs(), ref.Costs())
	}
	m.Access(0)
	m.Access(1)
	m.ResetCosts()
	m.Access(2)
	if m.CoreCosts(2).Accesses != 1 {
		t.Fatalf("after a reset two requests into a cycle, the next request went elsewhere: core 2 has %+v", m.CoreCosts(2))
	}
}
