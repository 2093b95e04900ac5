package experiments

import (
	"fmt"
	"math"

	"addrxlat/internal/ballsbins"
	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/mm"
	"addrxlat/internal/policy"
)

// bucketFractions are the bucket sizes t1 and t3 sweep, as fractions of
// the derived B.
var bucketFractions = []float64{0.5, 0.7, 0.85, 1.0, 1.2}

// Theorem1 validates the warm-up construction: with k=1 and buckets of
// size B = Θ(log P · log log P), filling to m = (1−δ)P pages and churning
// produces no paging failures; smaller buckets (at the same average load)
// fail. The table sweeps the bucket size as a fraction of the derived B.
func Theorem1(s Scale, P uint64, seeds int) (*Table, error) {
	base, err := core.DeriveParams(core.SingleChoice, P, P*16, 64)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "t1-singlechoice",
		Caption: fmt.Sprintf(
			"Theorem 1 (k=1): paging failures vs bucket size, P=%d, derived B=%d, m=%d, δ=%.4f, %d seeds",
			P, base.B, base.MaxResident, base.Delta, seeds),
		Columns: []string{"bucket_frac", "bucket_size", "fill_failures", "churn_failures", "failure_rate"},
	}
	if err := bucketSweep(s, t, base, seeds); err != nil {
		return nil, err
	}
	return t, nil
}

// Theorem3 is the analogous sweep for the Iceberg (k=3) construction,
// whose derived buckets are exponentially smaller.
func Theorem3(s Scale, P uint64, seeds int) (*Table, error) {
	base, err := core.DeriveParams(core.IcebergAlloc, P, P*16, 64)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "t3-iceberg",
		Caption: fmt.Sprintf(
			"Theorem 3 (Iceberg, k=3): paging failures vs bucket size, P=%d, derived B=%d (vs single-choice B=%d), m=%d, δ=%.4f, %d seeds",
			P, base.B, theorem1B(P), base.MaxResident, base.Delta, seeds),
		Columns: []string{"bucket_frac", "bucket_size", "fill_failures", "churn_failures", "failure_rate"},
	}
	if err := bucketSweep(s, t, base, seeds); err != nil {
		return nil, err
	}
	return t, nil
}

// bucketSweep adds t1's and t3's rows: one per bucket fraction, each
// shrinking only the physical bucket capacity. The bucket count,
// threshold geometry and resident-page target m stay at the derived
// values (the threshold is clamped to the shrunken bucket; it is 0 for
// k=1), so the average load λ is unchanged and under-sized buckets must
// overflow into paging failures. Every (fraction, seed) trial is its own
// task, and each row sums its trials in seed order.
func bucketSweep(s Scale, t *Table, base core.Params, seeds int) error {
	params := make([]core.Params, len(bucketFractions))
	for i, f := range bucketFractions {
		p := base
		p.B = max(int(math.Ceil(float64(base.B)*f)), 1)
		p.Threshold = min(p.Threshold, p.B)
		params[i] = p
	}
	type trial struct{ fill, churn, ops uint64 }
	trials := make([]trial, len(params)*seeds)
	err := s.forEach(len(trials), func(k int) error {
		i, seed := k/seeds, k%seeds
		tr := &trials[k]
		tr.fill, tr.churn, tr.ops = runFailureTrial(params[i], uint64(seed))
		return nil
	})
	if err != nil {
		return err
	}
	for i, f := range bucketFractions {
		var sum trial
		for _, tr := range trials[i*seeds : (i+1)*seeds] {
			sum.fill += tr.fill
			sum.churn += tr.churn
			sum.ops += tr.ops
		}
		t.AddRow(f, params[i].B, sum.fill, sum.churn,
			float64(sum.fill+sum.churn)/float64(sum.ops))
	}
	return nil
}

func theorem1B(P uint64) int {
	p, err := core.DeriveParams(core.SingleChoice, P, P*16, 64)
	if err != nil {
		return -1
	}
	return p.B
}

// runFailureTrial fills an allocator to m pages, then churns, counting
// paging failures in each phase. Returns (fillFailures, churnFailures,
// totalAssigns).
func runFailureTrial(p core.Params, seed uint64) (fill, churn, ops uint64) {
	alloc, err := core.NewAllocator(p, seed)
	if err != nil {
		panic(err) // geometry was validated by the caller
	}
	rng := hashutil.NewRNG(seed ^ 0xc0ffee)
	live := make([]uint64, 0, p.MaxResident)
	var next uint64
	// Bound the fill phase: when the shrunken buckets cannot physically
	// hold m pages, the target is unreachable and every further attempt
	// fails — 3m attempts is plenty to demonstrate that.
	for attempts := uint64(0); uint64(len(live)) < p.MaxResident && attempts < 3*p.MaxResident; attempts++ {
		ops++
		if _, ok := alloc.Assign(next); ok {
			live = append(live, next)
		} else {
			fill++
		}
		next++
	}
	if len(live) == 0 {
		return fill, churn, ops
	}
	churnSteps := int(p.MaxResident)
	if churnSteps > 200000 {
		churnSteps = 200000
	}
	for step := 0; step < churnSteps; step++ {
		i := rng.Intn(len(live))
		alloc.Release(live[i])
		ops++
		if _, ok := alloc.Assign(next); ok {
			live[i] = next
		} else {
			churn++
			live = append(live[:i], live[i+1:]...)
		}
		next++
	}
	return fill, churn, ops
}

// Theorem2 compares the max load of OneChoice, Greedy[2] and Iceberg[2]
// under dynamic churn across bin counts — the shape of Theorem 2. Reports
// peak max load and its gap above the average load λ.
func Theorem2(s Scale, lambda int, binCounts []int, churnSteps int, seed uint64) (*Table, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("experiments: lambda must be positive")
	}
	if len(binCounts) == 0 {
		binCounts = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14}
	}
	t := &Table{
		Name: "t2-ballsbins",
		Caption: fmt.Sprintf(
			"Theorem 2: peak max load under churn, λ=%d, %d churn steps (gap = peak − λ; Iceberg bound is λ(1+o(1)) + log log n + O(1))",
			lambda, churnSteps),
		Columns: []string{"bins", "balls", "loglogn",
			"onechoice_peak", "onechoice_gap",
			"greedy2_peak", "greedy2_gap",
			"iceberg2_peak", "iceberg2_gap", "iceberg2_bound", "bound_ok"},
	}
	type res struct{ one, greedy, ice int }
	results := make([]res, len(binCounts))
	err := s.forEach(len(binCounts), func(i int) error {
		n := binCounts[i]
		m := n * lambda
		runGame := func(r ballsbins.Rule) int {
			g := ballsbins.NewGame(r, m, seed+uint64(i))
			g.Churn(churnSteps)
			return g.PeakLoad()
		}
		results[i].one = runGame(ballsbins.NewOneChoice(n, seed))
		results[i].greedy = runGame(ballsbins.NewGreedy(n, 2, seed))
		results[i].ice = runGame(ballsbins.NewIceberg(n, 2, ballsbins.DefaultThreshold(m, n), seed))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range binCounts {
		r := results[i]
		loglogn := math.Log2(math.Log2(float64(n)))
		// Bound monitor: the evaluated Theorem 2 bound (1+o(1))λ + log log n
		// next to the observed Iceberg peak, so a regression in the
		// allocator shows up as bound_ok=no instead of an unexplained bump.
		bound := ballsbins.Theorem2Bound(float64(lambda), n)
		boundOK := "yes"
		if float64(r.ice) > bound {
			boundOK = "no"
		}
		t.AddRow(n, n*lambda, fmt.Sprintf("%.2f", loglogn),
			r.one, r.one-lambda,
			r.greedy, r.greedy-lambda,
			r.ice, r.ice-lambda, fmt.Sprintf("%.1f", bound), boundOK)
	}
	return t, nil
}

// Theorem4 is the Simulation Theorem experiment: for each Section 6
// workload, measure C_TLB(X), C_IO(Y), and Z's actual costs, confirming
// C(Z) ≤ C_TLB(X) + C_IO(Y) + slack, and set them against the
// physical-huge-page baselines at h=1 and h=hmax.
func Theorem4(s Scale, seed uint64) (*Table, error) {
	t := &Table{
		Name: "t4-simulation",
		Caption: "Theorem 4: decoupled Z vs its side optimizers X (TLB-only) and Y (IO-only) " +
			"and vs physical-huge-page baselines (ε=0.01)",
		Columns: []string{"workload", "algo", "ios", "tlb_misses", "decode_misses", "total_cost", "paging_failures"},
	}
	for _, w := range []Fig1Workload{F1aBimodal, F1bGraphWalk, F1cGraph500} {
		machine, err := buildFig1Machine(w, s, seed)
		if err != nil {
			return nil, err
		}
		z, err := mm.NewDecoupled(machine.zConfig())
		if err != nil {
			return nil, err
		}
		hmax := uint64(z.Params().HMax)
		x, err := mm.NewTLBOnly(hmax, machine.tlbEntries, policy.LRUKind, seed)
		if err != nil {
			return nil, err
		}
		y, err := mm.NewRAMOnly(z.Params().MaxResident, policy.LRUKind, seed)
		if err != nil {
			return nil, err
		}
		base1, err := machine.hugePage(1)
		if err != nil {
			return nil, err
		}
		baseH, err := machine.hugePage(hmax)
		if err != nil {
			return nil, err
		}
		// One streaming row for the five simulators; the offline OPT
		// bounds below are the one consumer that genuinely needs the
		// materialized windows.
		algos := []mm.Algorithm{z, x, y, base1, baseH}
		if err := joinRow(machine.runRow(s, algos)); err != nil {
			return nil, err
		}
		for _, a := range algos {
			c := a.Costs()
			failures := "-"
			if d, ok := a.(*mm.Decoupled); ok {
				failures = fmt.Sprintf("%d", d.Scheme().TotalFailures())
			}
			t.AddRow(string(w), a.Name(), c.IOs, c.TLBMisses, c.DecodingMisses,
				c.Total(paperEpsilon), failures)
		}

		// Offline lower bounds for both side problems (Lemma 1 + Belady):
		// the best TLB-miss count any X could achieve, and the best IO
		// count any Y could achieve, on the measured window given the
		// warmed-up state. We approximate the warm state by running OPT
		// on warmup+measured and on warmup alone, reporting the
		// difference (cold misses attributable to the measured window).
		warmup, measured, err := machine.materialize()
		if err != nil {
			return nil, err
		}
		hugeReqs := make([]uint64, 0, len(warmup)+len(measured))
		for _, v := range warmup {
			hugeReqs = append(hugeReqs, v/hmax)
		}
		warmLen := len(hugeReqs)
		for _, v := range measured {
			hugeReqs = append(hugeReqs, v/hmax)
		}
		optTLB := policy.OptMisses(hugeReqs, machine.tlbEntries) -
			policy.OptMisses(hugeReqs[:warmLen], machine.tlbEntries)
		baseReqs := append(append([]uint64{}, warmup...), measured...)
		optIO := policy.OptMisses(baseReqs, int(z.Params().MaxResident)) -
			policy.OptMisses(warmup, int(z.Params().MaxResident))
		t.AddRow(string(w), "tlb-opt(offline)", 0, optTLB, 0,
			paperEpsilon*float64(optTLB), "-")
		t.AddRow(string(w), "ram-opt(offline)", optIO, 0, 0, float64(optIO), "-")
	}
	return t, nil
}

// Equation2 tabulates the achieved hmax and δ across physical memory sizes
// for both constructions, at fixed w — the scaling promise of Eq. (2).
func Equation2(w int) (*Table, error) {
	t := &Table{
		Name:    "e2-hmax-scaling",
		Caption: fmt.Sprintf("Equation (2): hmax and δ vs P at w=%d bits", w),
		Columns: []string{"P", "kind", "bucket_B", "bits_per_page", "hmax", "delta"},
	}
	for _, logP := range []uint{16, 20, 24, 28, 32, 36, 40} {
		P := uint64(1) << logP
		for _, kind := range []core.AllocKind{core.FullyAssociative, core.SingleChoice, core.IcebergAlloc} {
			p, err := core.DeriveParams(kind, P, P*16, w)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprintf("2^%d", logP), string(kind), p.B, p.BitsPerPage, p.HMax,
				fmt.Sprintf("%.4f", p.Delta))
		}
	}
	return t, nil
}

// CoverageVsW tabulates the Conclusion's hardware-design observation: the
// decoupled schemes change the asymptotic relationship between the TLB
// value width w and coverage, so small increases in w buy large coverage
// gains — without storing any additional keys.
func CoverageVsW(P uint64) (*Table, error) {
	t := &Table{
		Name: "e2w-coverage-vs-w",
		Caption: fmt.Sprintf(
			"Conclusion: TLB coverage (pages per entry) as the value width w grows, P=%d", P),
		Columns: []string{"w_bits", "full_hmax", "single_hmax", "iceberg_hmax", "iceberg_vs_full"},
	}
	for _, w := range []int{32, 48, 64, 96, 128, 192, 256} {
		row := make([]interface{}, 0, 5)
		row = append(row, w)
		var hmaxes []int
		for _, kind := range []core.AllocKind{core.FullyAssociative, core.SingleChoice, core.IcebergAlloc} {
			p, err := core.DeriveParams(kind, P, P*16, w)
			if err != nil {
				// Width too small for this kind's per-page code: report 0.
				hmaxes = append(hmaxes, 0)
				continue
			}
			hmaxes = append(hmaxes, p.HMax)
		}
		row = append(row, hmaxes[0], hmaxes[1], hmaxes[2])
		if hmaxes[0] > 0 {
			row = append(row, fmt.Sprintf("%dx", hmaxes[2]/hmaxes[0]))
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Hybrid sweeps the Section 8 grouping factor g on the bimodal workload:
// coverage grows as hmax·g while IO amplification grows only as g.
func Hybrid(s Scale, seed uint64) (*Table, error) {
	machine, err := buildFig1Machine(F1aBimodal, s, seed)
	if err != nil {
		return nil, err
	}
	groups := []uint64{1, 2, 4, 8, 16}
	t := &Table{
		Name: "h1-hybrid",
		Caption: "Section 8 hybrid: decoupling over physically contiguous groups of g pages " +
			"(coverage = hmax·g pages per TLB entry), bimodal workload",
		Columns: []string{"g", "coverage_pages", "ios", "tlb_misses", "decode_misses", "total_cost"},
	}
	// One streaming row: the whole g-sweep shares each generated chunk.
	hybrids := make([]*mm.Hybrid, len(groups))
	sims := make([]mm.Algorithm, len(groups))
	for i, g := range groups {
		h, err := mm.NewHybrid(mm.HybridConfig{Decoupled: machine.zConfig(), GroupSize: g})
		if err != nil {
			return nil, err
		}
		hybrids[i] = h
		sims[i] = h
	}
	if err := joinRow(machine.runRow(s, sims)); err != nil {
		return nil, err
	}
	for i, g := range groups {
		h := hybrids[i]
		c := h.Costs()
		t.AddRow(g, h.CoveragePages(), c.IOs, c.TLBMisses,
			c.DecodingMisses, c.Total(paperEpsilon))
	}
	return t, nil
}
