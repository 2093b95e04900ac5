package mm

import (
	"math"
	"strings"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

func TestCostsTotal(t *testing.T) {
	c := Costs{IOs: 10, TLBMisses: 100, DecodingMisses: 5}
	if got := c.Total(0.01); math.Abs(got-11.05) > 1e-9 {
		t.Fatalf("Total = %v, want 11.05", got)
	}
	var sum Costs
	sum.Add(c)
	sum.Add(c)
	if sum.IOs != 20 || sum.TLBMisses != 200 || sum.DecodingMisses != 10 {
		t.Fatalf("Add: %+v", sum)
	}
	if !strings.Contains(c.String(), "ios=10") {
		t.Fatalf("String: %s", c.String())
	}
}

func TestHugePageConfigValidation(t *testing.T) {
	bad := []HugePageConfig{
		{HugePageSize: 0, TLBEntries: 4, RAMPages: 64},
		{HugePageSize: 3, TLBEntries: 4, RAMPages: 64},
		{HugePageSize: 1, TLBEntries: 0, RAMPages: 64},
		{HugePageSize: 1, TLBEntries: 4, RAMPages: 0},
		{HugePageSize: 128, TLBEntries: 4, RAMPages: 64},
	}
	for i, cfg := range bad {
		if _, err := NewHugePage(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

func TestHugePageH1IsClassicalPaging(t *testing.T) {
	// With h=1 the simulator is exactly classical paging + a page-grain
	// TLB: IO count must equal LRU misses on the raw sequence.
	cfg := HugePageConfig{HugePageSize: 1, TLBEntries: 8, RAMPages: 32}
	m, err := NewHugePage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := hashutil.NewRNG(1)
	reqs := make([]uint64, 20000)
	for i := range reqs {
		reqs[i] = r.Uint64n(100)
	}
	got := Run(m, reqs)
	want := policy.Misses(policy.NewLRU(32), reqs)
	if got.IOs != want {
		t.Fatalf("IOs = %d, want LRU misses %d", got.IOs, want)
	}
	wantTLB := policy.Misses(policy.NewLRU(8), reqs)
	if got.TLBMisses != wantTLB {
		t.Fatalf("TLB misses = %d, want %d", got.TLBMisses, wantTLB)
	}
	if got.Accesses != uint64(len(reqs)) {
		t.Fatalf("Accesses = %d", got.Accesses)
	}
}

// TestPageInAttributesHitEvictions pins that every eviction a RAM policy
// makes is attributed, including 2Q's on a hit, when a promotion from its
// probation queue fills the main queue: HugePage at h = 1 over 2Q must
// attribute exactly the evictions a shadow 2Q makes on the same stream,
// some of them on hits.
func TestPageInAttributesHitEvictions(t *testing.T) {
	const ramPages, pages, n = 256, 1024, 100_000
	m, err := NewHugePage(HugePageConfig{HugePageSize: 1, TLBEntries: 16, RAMPages: ramPages, RAMPolicy: policy.TwoQKind})
	if err != nil {
		t.Fatal(err)
	}
	ex := EnableExplain(m)
	shadow, err := policy.New(policy.TwoQKind, ramPages, 1) // HugePage seeds its RAM policy with Seed+1
	if err != nil {
		t.Fatal(err)
	}
	r := hashutil.NewRNG(1)
	var evictions, onHit uint64
	for i := 0; i < n; i++ {
		v := r.Uint64n(pages)
		m.Access(v)
		if hit, victim := shadow.Access(v); victim != policy.NoEviction {
			evictions++
			if hit {
				onHit++
			}
		}
	}
	if onHit == 0 {
		t.Fatal("the shadow 2Q evicted nothing on a hit: the stream misses the case")
	}
	if ex.Evictions != evictions {
		t.Fatalf("attributed %d evictions, the shadow 2Q made %d (%d of them on hits)", ex.Evictions, evictions, onHit)
	}
}

func TestHugePageFaultAmplification(t *testing.T) {
	// Every fault moves h pages: IOs must be a multiple of h, and a
	// single cold access costs exactly h.
	cfg := HugePageConfig{HugePageSize: 8, TLBEntries: 4, RAMPages: 64}
	m, err := NewHugePage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Access(3)
	if got := m.Costs().IOs; got != 8 {
		t.Fatalf("cold access IOs = %d, want h=8", got)
	}
	// Accessing another page of the same huge page is free of IOs.
	m.Access(5)
	if got := m.Costs().IOs; got != 8 {
		t.Fatalf("same-huge-page access IOs = %d, want 8", got)
	}
	// ... and of TLB misses.
	if got := m.Costs().TLBMisses; got != 1 {
		t.Fatalf("TLB misses = %d, want 1", got)
	}
}

// TestHugePageTradeoffShape is the Figure 1 sanity check in miniature: on
// a bimodal workload, growing h must (weakly) increase IOs and decrease
// TLB misses, with a large swing in both.
func TestHugePageTradeoffShape(t *testing.T) {
	r := hashutil.NewRNG(7)
	const hot = 1 << 10  // hot region: 1K pages
	const cold = 1 << 16 // cold region: 64K pages
	reqs := make([]uint64, 300000)
	for i := range reqs {
		if r.Float64() < 0.999 {
			reqs[i] = r.Uint64n(hot)
		} else {
			reqs[i] = r.Uint64n(cold)
		}
	}
	var prevIOs, prevTLB uint64
	first := true
	var ios1, ios64, tlb1, tlb64 uint64
	for _, h := range []uint64{1, 4, 16, 64} {
		m, err := NewHugePage(HugePageConfig{
			HugePageSize: h, TLBEntries: 64, RAMPages: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := RunWarm(m, reqs[:100000], reqs[100000:])
		if !first {
			if c.IOs < prevIOs {
				t.Errorf("h=%d: IOs %d decreased from %d", h, c.IOs, prevIOs)
			}
			if c.TLBMisses > prevTLB {
				t.Errorf("h=%d: TLB misses %d increased from %d", h, c.TLBMisses, prevTLB)
			}
		}
		prevIOs, prevTLB = c.IOs, c.TLBMisses
		first = false
		switch h {
		case 1:
			ios1, tlb1 = c.IOs, c.TLBMisses
		case 64:
			ios64, tlb64 = c.IOs, c.TLBMisses
		}
	}
	if ios64 < ios1*10 {
		t.Errorf("IO amplification too weak: h=1 %d, h=64 %d", ios1, ios64)
	}
	if tlb64*4 > tlb1 {
		t.Errorf("TLB relief too weak: h=1 %d, h=64 %d", tlb1, tlb64)
	}
}

func TestDecoupledBasic(t *testing.T) {
	z, err := NewDecoupled(DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 14,
		VirtualPages: 1 << 18,
		TLBEntries:   64,
		ValueBits:    64,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if z.Params().HMax < 2 {
		t.Fatalf("hmax = %d; decoupling should cover multiple pages", z.Params().HMax)
	}
	r := hashutil.NewRNG(2)
	for i := 0; i < 50000; i++ {
		z.Access(r.Uint64n(1 << 12))
	}
	c := z.Costs()
	if c.Accesses != 50000 {
		t.Fatalf("Accesses = %d", c.Accesses)
	}
	if c.IOs == 0 || c.TLBMisses == 0 {
		t.Fatalf("expected nonzero costs: %+v", c)
	}
	if z.Scheme().TotalFailures() != 0 {
		t.Fatalf("paging failures at tiny working set: %d", z.Scheme().TotalFailures())
	}
	if strings.TrimSpace(z.Name()) == "" {
		t.Fatal("empty name")
	}
}

// TestDecoupledMatchesSides is the Simulation Theorem check (Theorem 4):
// C_TLB(Z) == C_TLB(X) and C_IO(Z) == C_IO(Y) + failure slack, where X is
// paging over huge pages with ℓ entries and Y is paging over base pages
// with m entries — exactly Lemma 1's side problems.
func TestDecoupledMatchesSides(t *testing.T) {
	cfg := DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 14,
		VirtualPages: 1 << 18,
		TLBEntries:   48,
		ValueBits:    64,
		Seed:         3,
	}
	z, err := NewDecoupled(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewTLBOnly(uint64(z.Params().HMax), cfg.TLBEntries, policy.LRUKind, 7)
	if err != nil {
		t.Fatal(err)
	}
	y, err := NewRAMOnly(z.Params().MaxResident, policy.LRUKind, 7)
	if err != nil {
		t.Fatal(err)
	}
	r := hashutil.NewRNG(4)
	reqs := make([]uint64, 200000)
	for i := range reqs {
		// Zipf-ish: mixture of hot and cold regions to force both TLB
		// and RAM churn.
		if r.Float64() < 0.9 {
			reqs[i] = r.Uint64n(1 << 13)
		} else {
			reqs[i] = r.Uint64n(1 << 17)
		}
	}
	zc := Run(z, reqs)
	xc := Run(x, reqs)
	yc := Run(y, reqs)

	if zc.TLBMisses != xc.TLBMisses {
		t.Errorf("C_TLB(Z) = %d, want C_TLB(X) = %d", zc.TLBMisses, xc.TLBMisses)
	}
	failureIOs := z.FailureHits()
	if zc.IOs != yc.IOs+failureIOs {
		t.Errorf("C_IO(Z) = %d, want C_IO(Y)+failures = %d+%d", zc.IOs, yc.IOs, failureIOs)
	}
	// The n/poly(P) slack: failures should be a vanishing fraction.
	if float64(failureIOs) > 0.001*float64(len(reqs)) {
		t.Errorf("failure slack %d exceeds 0.1%% of %d requests", failureIOs, len(reqs))
	}
	// Headline inequality: C(Z) ≤ C_TLB(X) + C_IO(Y) + slack.
	eps := 0.01
	slack := float64(failureIOs) * (1 + eps)
	if zc.Total(eps) > xc.Total(eps)+yc.Total(eps)+slack+1e-9 {
		t.Errorf("C(Z)=%v exceeds C_TLB(X)+C_IO(Y)+slack = %v",
			zc.Total(eps), xc.Total(eps)+yc.Total(eps)+slack)
	}
}

// TestDecoupledBeatsBothBaselines: on a bimodal workload Z should have
// roughly the TLB misses of the huge-page baseline AND roughly the IOs of
// the h=1 baseline — the paper's whole point.
func TestDecoupledBeatsBothBaselines(t *testing.T) {
	const P = 1 << 14
	const V = 1 << 18
	const tlbEntries = 64
	// Hot set sized so that huge-page coverage (entries × hmax = 64×8)
	// spans it while base-page coverage (64 pages) falls far short —
	// the regime where huge pages pay off and decoupling must match them.
	r := hashutil.NewRNG(9)
	reqs := make([]uint64, 400000)
	for i := range reqs {
		if r.Float64() < 0.999 {
			reqs[i] = r.Uint64n(1 << 9)
		} else {
			reqs[i] = r.Uint64n(V)
		}
	}
	warm, meas := reqs[:200000], reqs[200000:]

	z, err := NewDecoupled(DecoupledConfig{
		Alloc: core.IcebergAlloc, RAMPages: P, VirtualPages: V,
		TLBEntries: tlbEntries, ValueBits: 64, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	hmax := uint64(z.Params().HMax)

	small, err := NewHugePage(HugePageConfig{HugePageSize: 1, TLBEntries: tlbEntries, RAMPages: P})
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewHugePage(HugePageConfig{HugePageSize: hmax, TLBEntries: tlbEntries, RAMPages: P})
	if err != nil {
		t.Fatal(err)
	}

	zc := RunWarm(z, warm, meas)
	sc := RunWarm(small, warm, meas)
	bc := RunWarm(big, warm, meas)

	// Z's TLB misses should be close to the huge-page baseline's (both
	// run LRU over hmax-grain requests with the same entry count).
	if zc.TLBMisses != bc.TLBMisses {
		t.Errorf("C_TLB(Z) = %d, want big-page baseline %d (identical TLB-side dynamics)",
			zc.TLBMisses, bc.TLBMisses)
	}
	// Z's TLB misses must be far below the h=1 baseline's.
	if zc.TLBMisses*2 > sc.TLBMisses {
		t.Errorf("Z TLB misses %d not clearly below h=1's %d", zc.TLBMisses, sc.TLBMisses)
	}
	// Z's IOs must be far below the physical-huge-page baseline's. Z has
	// capacity (1−δ)P vs the baseline's P, so allow some slack, but the
	// amplification should dominate.
	if zc.IOs*2 > bc.IOs {
		t.Errorf("Z IOs %d not clearly below huge-page baseline's %d", zc.IOs, bc.IOs)
	}
}

func TestDecoupledConfigErrors(t *testing.T) {
	if _, err := NewDecoupled(DecoupledConfig{RAMPages: 0, VirtualPages: 10, TLBEntries: 4}); err == nil {
		t.Error("P=0 should error")
	}
	if _, err := NewDecoupled(DecoupledConfig{RAMPages: 64, VirtualPages: 64, TLBEntries: 0}); err == nil {
		t.Error("TLBEntries=0 should error")
	}
	if _, err := NewDecoupled(DecoupledConfig{RAMPages: 1 << 12, VirtualPages: 1 << 14, TLBEntries: 4, ValueBits: -3}); err == nil {
		t.Error("ValueBits=-3 should error")
	}
	z, err := NewDecoupled(DecoupledConfig{RAMPages: 1 << 12, VirtualPages: 1 << 14, TLBEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w := z.Params().W; w != 64 {
		t.Errorf("ValueBits=0 runs at w=%d, want the default 64", w)
	}
}

func TestSidesErrors(t *testing.T) {
	if _, err := NewTLBOnly(0, 4, policy.LRUKind, 1); err == nil {
		t.Error("hmax=0 should error")
	}
	if _, err := NewTLBOnly(4, 4, "bogus", 1); err == nil {
		t.Error("bad policy should error")
	}
	if _, err := NewRAMOnly(0, policy.LRUKind, 1); err == nil {
		t.Error("capacity=0 should error")
	}
	if _, err := NewRAMOnly(4, "bogus", 1); err == nil {
		t.Error("bad policy should error")
	}
}

func TestResetCosts(t *testing.T) {
	algos := []Algorithm{}
	hp, _ := NewHugePage(HugePageConfig{HugePageSize: 2, TLBEntries: 4, RAMPages: 64})
	algos = append(algos, hp)
	z, _ := NewDecoupled(DecoupledConfig{RAMPages: 1 << 12, VirtualPages: 1 << 16, TLBEntries: 8, Seed: 1})
	algos = append(algos, z)
	x, _ := NewTLBOnly(4, 4, policy.LRUKind, 1)
	algos = append(algos, x)
	y, _ := NewRAMOnly(64, policy.LRUKind, 1)
	algos = append(algos, y)
	for _, a := range algos {
		for v := uint64(0); v < 100; v++ {
			a.Access(v)
		}
		a.ResetCosts()
		c := a.Costs()
		if c.IOs != 0 || c.TLBMisses != 0 || c.Accesses != 0 || c.DecodingMisses != 0 {
			t.Errorf("%s: counters not reset: %+v", a.Name(), c)
		}
	}
}

func TestHybridConfigErrors(t *testing.T) {
	base := DecoupledConfig{RAMPages: 1 << 12, VirtualPages: 1 << 16, TLBEntries: 8, Seed: 1}
	if _, err := NewHybrid(HybridConfig{Decoupled: base, GroupSize: 0}); err == nil {
		t.Error("g=0 should error")
	}
	if _, err := NewHybrid(HybridConfig{Decoupled: base, GroupSize: 3}); err == nil {
		t.Error("g=3 should error")
	}
	if _, err := NewHybrid(HybridConfig{Decoupled: base, GroupSize: 1 << 13}); err == nil {
		t.Error("g>P should error")
	}
}

func TestHybridG1MatchesDecoupled(t *testing.T) {
	base := DecoupledConfig{RAMPages: 1 << 12, VirtualPages: 1 << 16, TLBEntries: 16, Seed: 2}
	h, err := NewHybrid(HybridConfig{Decoupled: base, GroupSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewDecoupled(base)
	if err != nil {
		t.Fatal(err)
	}
	r := hashutil.NewRNG(3)
	for i := 0; i < 50000; i++ {
		v := r.Uint64n(1 << 11)
		h.Access(v)
		z.Access(v)
	}
	hc, zc := h.Costs(), z.Costs()
	if hc != zc {
		t.Fatalf("hybrid g=1 %+v != decoupled %+v", hc, zc)
	}
}

// TestHybridPartialLastGroup: when g does not divide V, the pages of the
// last, partial group are still in the address space and must page in.
func TestHybridPartialLastGroup(t *testing.T) {
	const V = 1<<16 + 3
	base := DecoupledConfig{RAMPages: 1 << 12, VirtualPages: V, TLBEntries: 8, Seed: 1}
	h, err := NewHybrid(HybridConfig{Decoupled: base, GroupSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	h.Access(V - 1)
	if got := h.Costs().IOs; got != 8 {
		t.Fatalf("last-group access IOs = %d, want 8", got)
	}
}

func TestHybridCoverageAndAmplification(t *testing.T) {
	base := DecoupledConfig{RAMPages: 1 << 14, VirtualPages: 1 << 18, TLBEntries: 16, Seed: 2}
	h4, err := NewHybrid(HybridConfig{Decoupled: base, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h4.CoveragePages() != uint64(h4.Inner().Params().HMax)*4 {
		t.Fatalf("coverage = %d", h4.CoveragePages())
	}
	// Cold access must cost exactly g IOs.
	h4.Access(0)
	if got := h4.Costs().IOs; got != 4 {
		t.Fatalf("cold access IOs = %d, want 4", got)
	}
	// Accesses within the same group are free.
	h4.Access(1)
	h4.Access(3)
	if got := h4.Costs().IOs; got != 4 {
		t.Fatalf("same-group accesses IOs = %d, want 4", got)
	}
	if !strings.Contains(h4.Name(), "g=4") {
		t.Fatalf("Name = %q", h4.Name())
	}
}

func TestRunWarmDiscardsWarmup(t *testing.T) {
	m, _ := NewHugePage(HugePageConfig{HugePageSize: 1, TLBEntries: 4, RAMPages: 16})
	warm := []uint64{1, 2, 3, 4}
	meas := []uint64{1, 2, 3, 4}
	c := RunWarm(m, warm, meas)
	if c.IOs != 0 {
		t.Fatalf("measured IOs = %d; warm pages should already be resident", c.IOs)
	}
	if c.Accesses != 4 {
		t.Fatalf("Accesses = %d, want 4", c.Accesses)
	}
}
