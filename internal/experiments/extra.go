package experiments

import (
	"fmt"

	"addrxlat/internal/mm"
	"addrxlat/internal/policy"
	"addrxlat/internal/workload"
)

// Policies compares the classical paging performance (miss counts) of
// every online policy against offline OPT across three canonical
// workloads — the substrate Lemma 1 reduces both halves of the
// address-translation problem to. Cache size is `capacity`.
func Policies(s Scale, capacity int, nAccesses int, seed uint64) (*Table, error) {
	if capacity <= 0 || nAccesses <= 0 {
		return nil, fmt.Errorf("experiments: capacity and accesses must be positive")
	}
	zipf, err := workload.NewZipf(uint64(capacity*8), 1.1, seed)
	if err != nil {
		return nil, err
	}
	uni, err := workload.NewUniform(uint64(capacity*4), seed)
	if err != nil {
		return nil, err
	}
	seq, err := workload.NewSequential(uint64(capacity) * 3 / 2)
	if err != nil {
		return nil, err
	}
	loads := []struct {
		name string
		reqs []uint64
	}{
		{"zipf(s=1.1)", workload.Take(zipf, nAccesses)},
		{"uniform", workload.Take(uni, nAccesses)},
		{"cyclic-scan", workload.Take(seq, nAccesses)},
	}
	t := &Table{
		Name: "e3-policies",
		Caption: fmt.Sprintf(
			"Classical paging: misses per policy (cache=%d, %d accesses) vs offline OPT",
			capacity, nAccesses),
		Columns: []string{"workload", "policy", "misses", "vs_opt"},
	}
	// One task per (workload, policy) cell, offline OPT first in each
	// workload's group.
	kinds := policy.Kinds()
	per := 1 + len(kinds)
	misses := make([]uint64, len(loads)*per)
	err = s.forEach(len(misses), func(k int) error {
		reqs, j := loads[k/per].reqs, k%per
		if j == 0 {
			misses[k] = policy.OptMisses(reqs, capacity)
			return nil
		}
		p, err := policy.New(kinds[j-1], capacity, seed+uint64(j-1))
		if err != nil {
			return err
		}
		misses[k] = policy.Misses(p, reqs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li, load := range loads {
		group := misses[li*per : (li+1)*per]
		opt := group[0]
		t.AddRow(load.name, "opt(offline)", opt, 1.0)
		for i, k := range kinds {
			t.AddRow(load.name, string(k), group[1+i], float64(group[1+i])/float64(max(opt, 1)))
		}
	}
	return t, nil
}

// Adaptive compares the OS-style adaptive baselines of Section 7 — THP
// (promote-by-copy) and reservation-based superpages — against fixed-h
// physical huge pages and the paper's decoupled algorithm, on the bimodal
// workload.
func Adaptive(s Scale, seed uint64) (*Table, error) {
	machine, err := buildFig1Machine(F1aBimodal, s, seed)
	if err != nil {
		return nil, err
	}
	z, err := mm.NewDecoupled(machine.zConfig())
	if err != nil {
		return nil, err
	}
	h := uint64(64)
	if machine.ramPages < 4*h {
		h = 8
	}
	fixed, err := machine.hugePage(h)
	if err != nil {
		return nil, err
	}
	small, err := machine.hugePage(1)
	if err != nil {
		return nil, err
	}
	thp, err := mm.NewTHP(mm.THPConfig{
		HugePageSize: h, TLBEntries: machine.tlbEntries, RAMPages: machine.ramPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	sp, err := mm.NewSuperpage(mm.SuperpageConfig{
		HugePageSize: h, TLBEntries: machine.tlbEntries, RAMPages: machine.ramPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	he, err := mm.NewHawkEye(mm.HawkEyeConfig{
		HugePageSize: h, TLBEntries: machine.tlbEntries, RAMPages: machine.ramPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	// Hybrid with coverage matched to the fixed-h baseline: group size
	// g = h/hmax so one TLB entry spans h pages, but faults move only g.
	g := h / uint64(z.Params().HMax)
	if g < 1 {
		g = 1
	}
	hy, err := mm.NewHybrid(mm.HybridConfig{Decoupled: machine.zConfig(), GroupSize: g})
	if err != nil {
		return nil, err
	}

	// One streaming row: all seven simulators consume each generated
	// chunk in place (the notes columns need the live objects, so these
	// cells bypass the result cache).
	algos := []mm.Algorithm{small, fixed, thp, sp, he, z, hy}
	if err := joinRow(machine.runRow(s, algos)); err != nil {
		return nil, err
	}

	t := &Table{
		Name: "e4-adaptive",
		Caption: fmt.Sprintf(
			"Section 7 adaptive baselines vs fixed-h and decoupling (bimodal, h=%d, ε=0.01)", h),
		Columns: []string{"algo", "ios", "tlb_misses", "decode_misses", "total_cost", "notes"},
	}
	for _, a := range algos {
		c := a.Costs()
		notes := "-"
		switch v := a.(type) {
		case *mm.THP:
			notes = fmt.Sprintf("promotions=%d demotions=%d", v.Promotions(), v.Demotions())
		case *mm.HawkEye:
			notes = fmt.Sprintf("promotions=%d demotions=%d", v.Promotions(), v.Demotions())
		case *mm.Superpage:
			notes = fmt.Sprintf("promotions=%d preemptions=%d", v.Promotions(), v.Preemptions())
		case *mm.Decoupled:
			notes = fmt.Sprintf("failures=%d", v.Scheme().TotalFailures())
		}
		t.AddRow(a.Name(), c.IOs, c.TLBMisses, c.DecodingMisses, c.Total(paperEpsilon), notes)
	}
	return t, nil
}

// Nested quantifies the virtualized-translation amplification from the
// paper's introduction: guest+host TLB misses vs a flat configuration at
// equal total TLB budget, across guest TLB sizes.
func Nested(s Scale, seed uint64) (*Table, error) {
	machine, err := buildFig1Machine(F1aBimodal, s, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "e5-nested",
		Caption: "Virtualized (two-level) translation: total TLB misses and nested-walk " +
			"references vs a flat TLB of the same total size (bimodal workload)",
		Columns: []string{"config", "tlb_misses", "nested_walk_refs", "ios"},
	}
	flat, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 1, TLBEntries: 2 * machine.tlbEntries, RAMPages: machine.ramPages, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	splits := []int{2, 4, 8}
	nested := make([]*mm.Nested, len(splits))
	sims := []mm.Algorithm{flat}
	for i, split := range splits {
		guestEntries := machine.tlbEntries * 2 * (split - 1) / split
		hostEntries := machine.tlbEntries*2 - guestEntries
		n, err := mm.NewNested(mm.NestedConfig{
			GuestHugePageSize: 1, HostHugePageSize: 1,
			GuestTLBEntries: guestEntries, HostTLBEntries: hostEntries,
			RAMPages: machine.ramPages, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		nested[i] = n
		sims = append(sims, n)
	}
	// One streaming row for the flat baseline and every split (the
	// nested-walk-reference column needs the live objects, so no cache).
	if err := joinRow(machine.runRow(s, sims)); err != nil {
		return nil, err
	}
	fc := flat.Costs()
	t.AddRow(fmt.Sprintf("flat(tlb=%d)", 2*machine.tlbEntries), fc.TLBMisses, 0, fc.IOs)
	for i, n := range nested {
		c := n.Costs()
		guestEntries := machine.tlbEntries * 2 * (splits[i] - 1) / splits[i]
		hostEntries := machine.tlbEntries*2 - guestEntries
		t.AddRow(fmt.Sprintf("nested(guest=%d,host=%d)", guestEntries, hostEntries),
			c.TLBMisses, n.NestedWalkRefs(), c.IOs)
	}
	return t, nil
}
