package mm

import (
	"strings"
	"testing"

	"addrxlat/internal/hashutil"
)

func TestTHPConfigValidation(t *testing.T) {
	bad := []THPConfig{
		{HugePageSize: 1, TLBEntries: 4, RAMPages: 64}, // h must be ≥ 2
		{HugePageSize: 6, TLBEntries: 4, RAMPages: 64}, // power of two
		{HugePageSize: 8, TLBEntries: 0, RAMPages: 64}, // TLB
		{HugePageSize: 8, TLBEntries: 4, RAMPages: 4},  // RAM < h
		{HugePageSize: 8, TLBEntries: 4, RAMPages: 64, PromoteThreshold: 9},
	}
	for i, cfg := range bad {
		if _, err := NewTHP(cfg); err == nil {
			t.Errorf("case %d should error: %+v", i, cfg)
		}
	}
	// Default threshold = h/2.
	cfg := THPConfig{HugePageSize: 8, TLBEntries: 4, RAMPages: 64}
	m, err := NewTHP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Name(), "promote@4") {
		t.Fatalf("Name = %q, want default threshold 4", m.Name())
	}
}

func TestTHPPromotion(t *testing.T) {
	m, err := NewTHP(THPConfig{HugePageSize: 8, PromoteThreshold: 4, TLBEntries: 16, RAMPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Touch 3 pages of region 0: no promotion, 3 IOs.
	m.Access(0)
	m.Access(1)
	m.Access(2)
	if m.Promotions() != 0 {
		t.Fatal("premature promotion")
	}
	if m.Costs().IOs != 3 {
		t.Fatalf("IOs = %d, want 3", m.Costs().IOs)
	}
	// Fourth page triggers promotion: fetches the 4 missing pages.
	m.Access(3)
	if m.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", m.Promotions())
	}
	if m.Costs().IOs != 8 {
		t.Fatalf("IOs = %d, want 8 (4 demand + 4 promotion fill)", m.Costs().IOs)
	}
	if m.PromotedRegions() != 1 {
		t.Fatalf("promoted regions = %d", m.PromotedRegions())
	}
	// Subsequent accesses anywhere in the region are free of IOs and
	// (after one huge-entry miss) of TLB misses.
	before := m.Costs()
	m.Access(7)
	m.Access(5)
	after := m.Costs()
	if after.IOs != before.IOs {
		t.Fatal("promoted-region access cost IOs")
	}
}

func TestTHPDemotionOnEviction(t *testing.T) {
	// RAM of 16 pages, h=8: two promoted regions fill RAM; promoting a
	// third must evict (demote) the LRU one wholesale.
	m, err := NewTHP(THPConfig{HugePageSize: 8, PromoteThreshold: 2, TLBEntries: 32, RAMPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	m.Access(0)
	m.Access(1) // promotes region 0
	m.Access(8)
	m.Access(9) // promotes region 1
	if m.PromotedRegions() != 2 {
		t.Fatalf("promoted = %d, want 2", m.PromotedRegions())
	}
	m.Access(16)
	m.Access(17) // promotes region 2, must demote region 0
	if m.Demotions() == 0 {
		t.Fatal("expected a demotion under memory pressure")
	}
	if m.PromotedRegions() != 2 {
		t.Fatalf("promoted = %d after demotion, want 2", m.PromotedRegions())
	}
	// Region 0 must fault again.
	before := m.Costs().IOs
	m.Access(0)
	if m.Costs().IOs == before {
		t.Fatal("evicted region's page should fault")
	}
}

func TestTHPBetweenBaselines(t *testing.T) {
	// On the bimodal workload THP should beat fixed-h on IOs (it only
	// promotes hot regions) while beating h=1 on TLB misses.
	r := hashutil.NewRNG(11)
	reqs := make([]uint64, 300000)
	for i := range reqs {
		if r.Float64() < 0.999 {
			reqs[i] = r.Uint64n(1 << 10)
		} else {
			reqs[i] = r.Uint64n(1 << 16)
		}
	}
	warm, meas := reqs[:150000], reqs[150000:]
	const ram = 1 << 13
	const entries = 32
	const h = 64

	thp, err := NewTHP(THPConfig{HugePageSize: h, TLBEntries: entries, RAMPages: ram, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewHugePage(HugePageConfig{HugePageSize: h, TLBEntries: entries, RAMPages: ram, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewHugePage(HugePageConfig{HugePageSize: 1, TLBEntries: entries, RAMPages: ram, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ct := RunWarm(thp, warm, meas)
	cf := RunWarm(fixed, warm, meas)
	cs := RunWarm(small, warm, meas)

	if ct.IOs >= cf.IOs {
		t.Errorf("THP IOs %d should be below fixed-h %d", ct.IOs, cf.IOs)
	}
	if ct.TLBMisses >= cs.TLBMisses {
		t.Errorf("THP TLB misses %d should be below h=1's %d", ct.TLBMisses, cs.TLBMisses)
	}
}

func TestTHPRAMAccounting(t *testing.T) {
	m, err := NewTHP(THPConfig{HugePageSize: 4, PromoteThreshold: 2, TLBEntries: 8, RAMPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	r := hashutil.NewRNG(2)
	for i := 0; i < 50000; i++ {
		m.Access(r.Uint64n(256))
		if m.used > 16 {
			t.Fatalf("step %d: used %d pages > RAM 16", i, m.used)
		}
	}
	// Bookkeeping cross-check: recount pages from the promoted/resident
	// tables (256 pages / h=4 → regions < 64).
	recount := 4 * uint64(m.promoted.Len())
	for r := uint64(0); r < 64; r++ {
		recount += uint64(m.resident.At(r))
	}
	if recount != m.used {
		t.Fatalf("used=%d but tables say %d", m.used, recount)
	}
}

func TestNestedConfigValidation(t *testing.T) {
	bad := []NestedConfig{
		{GuestHugePageSize: 0, HostHugePageSize: 1, GuestTLBEntries: 4, HostTLBEntries: 4, RAMPages: 64},
		{GuestHugePageSize: 3, HostHugePageSize: 1, GuestTLBEntries: 4, HostTLBEntries: 4, RAMPages: 64},
		{GuestHugePageSize: 1, HostHugePageSize: 1, GuestTLBEntries: 0, HostTLBEntries: 4, RAMPages: 64},
		{GuestHugePageSize: 1, HostHugePageSize: 1, GuestTLBEntries: 4, HostTLBEntries: 0, RAMPages: 64},
		{GuestHugePageSize: 1, HostHugePageSize: 128, GuestTLBEntries: 4, HostTLBEntries: 4, RAMPages: 64},
	}
	for i, cfg := range bad {
		if _, err := NewNested(cfg); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

// TestNestedNameCarriesTLBSplit: e5's cells share huge-page sizes and
// differ only in the guest/host TLB split, so the split must be in the
// name that keys their .curves.tsv and .explain.tsv series.
func TestNestedNameCarriesTLBSplit(t *testing.T) {
	seen := map[string]bool{}
	for _, guest := range []int{24, 36, 42} {
		n, err := NewNested(NestedConfig{
			GuestHugePageSize: 1, HostHugePageSize: 1,
			GuestTLBEntries: guest, HostTLBEntries: 48 - guest, RAMPages: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen[n.Name()] {
			t.Fatalf("two TLB splits share the name %q", n.Name())
		}
		seen[n.Name()] = true
	}
	n, err := NewNested(NestedConfig{
		GuestHugePageSize: 2, HostHugePageSize: 4,
		GuestTLBEntries: 8, HostTLBEntries: 16, RAMPages: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Name(), "nested(hg=2,hh=4,guest=8,host=16)"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
}

func TestNestedAmplification(t *testing.T) {
	// A guest TLB miss must trigger an extra host reference; with a tiny
	// guest TLB and scattered accesses, host TLB misses should exceed
	// what a single-level configuration would see.
	mk := func(guestEntries int) (*Nested, uint64) {
		n, err := NewNested(NestedConfig{
			GuestHugePageSize: 1, HostHugePageSize: 1,
			GuestTLBEntries: guestEntries, HostTLBEntries: 64,
			RAMPages: 1 << 14, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := hashutil.NewRNG(4)
		for i := 0; i < 100000; i++ {
			n.Access(r.Uint64n(1 << 12))
		}
		return n, n.Costs().TLBMisses
	}
	small, smallMisses := mk(4)
	big, bigMisses := mk(1 << 13)
	if small.NestedWalkRefs() <= big.NestedWalkRefs() {
		t.Errorf("small guest TLB should cause more nested walks: %d vs %d",
			small.NestedWalkRefs(), big.NestedWalkRefs())
	}
	if smallMisses <= bigMisses {
		t.Errorf("small guest TLB should cost more total TLB misses: %d vs %d",
			smallMisses, bigMisses)
	}
}

func TestNestedResetCosts(t *testing.T) {
	n, err := NewNested(NestedConfig{
		GuestHugePageSize: 1, HostHugePageSize: 1,
		GuestTLBEntries: 4, HostTLBEntries: 4, RAMPages: 64, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 100; v++ {
		n.Access(v)
	}
	n.ResetCosts()
	if c := n.Costs(); c.IOs != 0 || c.TLBMisses != 0 || c.Accesses != 0 {
		t.Fatalf("not reset: %+v", c)
	}
	if n.NestedWalkRefs() != 0 {
		t.Fatal("walk refs not reset")
	}
}
