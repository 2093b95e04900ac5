// Package addrxlat's root benchmark harness: one testing.B benchmark per
// experiment in DESIGN.md §3. Each benchmark runs a (scaled) instance of
// the corresponding experiment and reports the figure's headline numbers
// as custom metrics, so `go test -bench=. -benchmem` regenerates every
// table and figure in miniature. The cmd/figures binary runs the same
// experiments at larger scale with full parameter sweeps.
package addrxlat

import (
	"strconv"
	"testing"

	"addrxlat/internal/ballsbins"
	"addrxlat/internal/core"
	"addrxlat/internal/experiments"
	"addrxlat/internal/graph500"
	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/policy"
	"addrxlat/internal/serve"
	"addrxlat/internal/workload"
)

// benchScale keeps each bench iteration around a second.
func benchScale() experiments.Scale {
	return experiments.Scale{SpaceDiv: 512, AccessDiv: 500}
}

// reportEndpoints extracts the h=1 row and the largest usable-h row of a
// Figure 1 table into benchmark metrics (the figure's shape in four
// numbers). Saturated rows (RAM smaller than one huge page at aggressive
// scaling) are skipped when picking the upper endpoint.
func reportEndpoints(b *testing.B, tab *experiments.Table) {
	b.Helper()
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return -1
		}
		return v
	}
	first := tab.Rows[0]
	last := tab.Rows[len(tab.Rows)-1]
	for i := len(tab.Rows) - 1; i >= 0; i-- {
		if tab.Rows[i][1] != "saturated" {
			last = tab.Rows[i]
			break
		}
	}
	b.ReportMetric(parse(first[1]), "ios_h1")
	b.ReportMetric(parse(first[2]), "tlbmiss_h1")
	b.ReportMetric(parse(last[1]), "ios_hmax")
	b.ReportMetric(parse(last[2]), "tlbmiss_hmax")
}

// BenchmarkFig1aBimodal regenerates Figure 1a (bimodal uniform workload).
func BenchmarkFig1aBimodal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig1(experiments.F1aBimodal, benchScale(), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, tab)
		}
	}
}

// BenchmarkRowPipeline measures the row executor — the chunk ring with
// one worker per simulator — on the multi-algorithm Figure 1a row at
// several Workers settings: workers=1 admits one simulation at a time,
// workers=2 and 4 let that many run concurrently. On a single-core host
// the ring can only overlap generation with simulation; the per-sim
// overlap needs real cores, so interpret the matrix against GOMAXPROCS.
func BenchmarkRowPipeline(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			s := benchScale()
			s.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig1(experiments.F1aBimodal, s, uint64(i)+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig1bGraphWalk regenerates Figure 1b (Pareto graph walk).
func BenchmarkFig1bGraphWalk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig1(experiments.F1bGraphWalk, benchScale(), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, tab)
		}
	}
}

// BenchmarkFig1cGraph500 regenerates Figure 1c (graph500 BFS trace).
func BenchmarkFig1cGraph500(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig1(experiments.F1cGraph500, benchScale(), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportEndpoints(b, tab)
		}
	}
}

// BenchmarkTheorem1SingleChoice regenerates the Theorem 1 failure sweep.
func BenchmarkTheorem1SingleChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Theorem1(1<<15, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 5 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkTheorem2Iceberg regenerates the Theorem 2 max-load comparison.
func BenchmarkTheorem2Iceberg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Theorem2(32, []int{1 << 10, 1 << 12}, 10000, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			one, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][3], 64)
			ice, _ := strconv.ParseFloat(tab.Rows[len(tab.Rows)-1][7], 64)
			b.ReportMetric(one, "onechoice_peak")
			b.ReportMetric(ice, "iceberg_peak")
		}
	}
}

// BenchmarkTheorem3Decoupling regenerates the Theorem 3 failure sweep.
func BenchmarkTheorem3Decoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Theorem3(1<<15, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) != 5 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkTheorem4Simulation regenerates the Simulation Theorem table.
func BenchmarkTheorem4Simulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Theorem4(benchScale(), uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		// 3 workloads × (5 algorithms + 2 offline-OPT rows).
		if len(tab.Rows) != 21 {
			b.Fatal("unexpected table shape")
		}
	}
}

// BenchmarkEquation2HmaxScaling regenerates the Eq. (2) scaling table.
func BenchmarkEquation2HmaxScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Equation2(64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybrid regenerates the Section 8 hybrid sweep.
func BenchmarkHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Hybrid(benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoliciesVsOpt regenerates the classical-paging policy table.
func BenchmarkPoliciesVsOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Policies(256, 100000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveBaselines regenerates the THP/superpage comparison.
func BenchmarkAdaptiveBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Adaptive(benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNestedTranslation regenerates the virtualized-translation table.
func BenchmarkNestedTranslation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Nested(benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTenants regenerates the shared-TLB contention table.
func BenchmarkTenants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Tenants(256, 512, 200000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelatedDesigns regenerates the CoLT/direct-segment table.
func BenchmarkRelatedDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Related(benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeShare regenerates the execution-time breakdown table.
func BenchmarkTimeShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TimeShare(benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTLBGeometry regenerates the TLB-organization table.
func BenchmarkTLBGeometry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TLBGeometryStudy(benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiCore regenerates the per-core-TLB table.
func BenchmarkMultiCore(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiCoreStudy(256, 1<<11, 200000, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossover regenerates the headline best-fixed-h summary.
func BenchmarkCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Crossover(benchScale(), uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoverageVsW regenerates the Conclusion's w-scaling table.
func BenchmarkCoverageVsW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CoverageVsW(1 << 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailureProbability regenerates the w.h.p. validation table
// (fewer seeds than the CLI run, for bench-friendly latency).
func BenchmarkFailureProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FailureProbability([]uint{12, 14}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIcebergThreshold is the ablation bench for the front-bin
// threshold factor: peak load of Iceberg[2] at thresholds 0.9λ, 1.05λ
// (the default) and 1.3λ.
func BenchmarkIcebergThreshold(b *testing.B) {
	const n, lambda = 1 << 12, 32
	const m = n * lambda
	for _, factor := range []float64{0.9, 1.05, 1.3} {
		b.Run(strconv.FormatFloat(factor, 'f', 2, 64), func(b *testing.B) {
			peak := 0
			for i := 0; i < b.N; i++ {
				th := int(float64(lambda) * factor)
				if th < 1 {
					th = 1
				}
				g := ballsbins.NewGame(ballsbins.NewIceberg(n, 2, th, uint64(i)+1), m, uint64(i)+99)
				g.Churn(10000)
				peak = g.PeakLoad()
			}
			b.ReportMetric(float64(peak), "peak_load")
		})
	}
}

// --- Microbenchmarks of the hot paths behind the experiments ---

// BenchmarkAccessHugePage measures one baseline-simulator access.
func BenchmarkAccessHugePage(b *testing.B) {
	gen, err := workload.NewBimodal(1<<12, 1<<18, 0.9999, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := workload.Take(gen, 1<<20)
	alg, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 64, TLBEntries: 1536, RAMPages: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Access(reqs[i&(1<<20-1)])
	}
}

// BenchmarkAccessDecoupled measures one Z access (TLB + decode + Y).
func BenchmarkAccessDecoupled(b *testing.B) {
	gen, err := workload.NewBimodal(1<<12, 1<<18, 0.9999, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := workload.Take(gen, 1<<20)
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 16,
		VirtualPages: 1 << 18,
		TLBEntries:   1536,
		ValueBits:    64,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Access(reqs[i&(1<<20-1)])
	}
}

// BenchmarkAccessTHP measures one adaptive-THP access (region tracking,
// promotion checks, TLB).
func BenchmarkAccessTHP(b *testing.B) {
	gen, err := workload.NewBimodal(1<<12, 1<<18, 0.9999, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := workload.Take(gen, 1<<20)
	alg, err := mm.NewTHP(mm.THPConfig{
		HugePageSize: 64, TLBEntries: 1536, RAMPages: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Access(reqs[i&(1<<20-1)])
	}
}

// BenchmarkAccessSuperpage measures one reservation-based superpage access.
func BenchmarkAccessSuperpage(b *testing.B) {
	gen, err := workload.NewBimodal(1<<12, 1<<18, 0.9999, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := workload.Take(gen, 1<<20)
	alg, err := mm.NewSuperpage(mm.SuperpageConfig{
		HugePageSize: 64, TLBEntries: 1536, RAMPages: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Access(reqs[i&(1<<20-1)])
	}
}

// benchAccessBatch drives a staged batch kernel through AccessBatch in
// experiment-sized chunks, reporting per-access cost. ReportAllocs pins
// the steady-state zero-allocation contract of the staged paths (the
// kernels reuse their own column buffers across chunks).
func benchAccessBatch(b *testing.B, alg mm.Algorithm) {
	gen, err := workload.NewBimodal(1<<12, 1<<18, 0.9999, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := workload.Take(gen, 1<<20)
	const chunk = 4096
	alg.AccessBatch(reqs[:chunk]) // size the kernel's buffers outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += chunk {
		lo := i & (1<<20 - 1)
		n := chunk
		if rem := b.N - i; rem < n {
			n = rem
		}
		alg.AccessBatch(reqs[lo : lo+n])
	}
}

// BenchmarkAccessBatchHugePage measures the fused columnar stack kernel.
func BenchmarkAccessBatchHugePage(b *testing.B) {
	alg, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 64, TLBEntries: 1536, RAMPages: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchAccessBatch(b, alg)
}

// BenchmarkAccessBatchDecoupled measures the two-pass column split (RAM/
// decode pass, then the TLB probe column).
func BenchmarkAccessBatchDecoupled(b *testing.B) {
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 16,
		VirtualPages: 1 << 18,
		TLBEntries:   1536,
		ValueBits:    64,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchAccessBatch(b, z)
}

// BenchmarkAccessBatchHugePageExplain measures the same kernel with cost
// attribution armed, as every serve cell runs it: the column totals feed
// the attribution, so it should cost about what the bare kernel does.
func BenchmarkAccessBatchHugePageExplain(b *testing.B) {
	alg, err := mm.NewHugePage(mm.HugePageConfig{
		HugePageSize: 64, TLBEntries: 1536, RAMPages: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	mm.EnableExplain(alg)
	benchAccessBatch(b, alg)
}

// BenchmarkAccessBatchDecoupledExplain measures the two-pass column split
// with cost attribution armed: each packed TLB miss is classified through
// the flat classifier table.
func BenchmarkAccessBatchDecoupledExplain(b *testing.B) {
	z, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     1 << 16,
		VirtualPages: 1 << 18,
		TLBEntries:   1536,
		ValueBits:    64,
		Seed:         1,
	})
	if err != nil {
		b.Fatal(err)
	}
	mm.EnableExplain(z)
	benchAccessBatch(b, z)
}

// BenchmarkAccessBatchTHP measures the fused in-order THP kernel.
func BenchmarkAccessBatchTHP(b *testing.B) {
	alg, err := mm.NewTHP(mm.THPConfig{
		HugePageSize: 64, TLBEntries: 1536, RAMPages: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchAccessBatch(b, alg)
}

// BenchmarkAccessBatchSuperpage measures the fused reservation-based
// superpage kernel.
func BenchmarkAccessBatchSuperpage(b *testing.B) {
	alg, err := mm.NewSuperpage(mm.SuperpageConfig{
		HugePageSize: 64, TLBEntries: 1536, RAMPages: 1 << 16, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchAccessBatch(b, alg)
}

// BenchmarkGraph500TraceGeneration measures building the Figure 1c input
// as the default scale (experiments.DownScale) builds it, each iteration
// from scratch: the graph500 scale-16 R-MAT graph, its highest-degree
// root and the BFS excerpt of 2 × 5 M/50 accesses.
func BenchmarkGraph500TraceGeneration(b *testing.B) {
	const excerpt = 2 * 5_000_000 / 50
	for i := 0; i < b.N; i++ {
		g, err := graph500.Generate(graph500.Config{Scale: 16, EdgeFactor: 16, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := g.BFSTrace(g.HighestDegreeVertex(), graph500.DefaultLayout(), excerpt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(res.Trace)), "trace_len")
		}
	}
}

// BenchmarkOptBelady measures the offline-optimal baseline used in policy
// comparisons.
func BenchmarkOptBelady(b *testing.B) {
	gen, err := workload.NewZipf(1<<14, 1.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := workload.Take(gen, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.OptMisses(reqs, 1<<10)
	}
}

// benchServeSim builds an overloaded serving run (2.5× capacity, governor
// armed) over a huge-page simulator, optionally with the virtual-time
// metrics collector attached. Requests is sized so one build outlasts a
// full -benchtime=1s measurement.
func benchServeSim(b *testing.B, seed uint64, armed bool) *serve.Sim {
	b.Helper()
	alg, err := mm.NewHugePage(mm.HugePageConfig{HugePageSize: 1, TLBEntries: 64, RAMPages: 1 << 12, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewUniform(1<<14, seed+1)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := serve.New(serve.Config{
		Seed:        seed,
		Requests:    1_000_000,
		BlockPages:  64,
		QueueCap:    128,
		MaxAttempts: 3,
		RetryBaseNs: 1000,
		Governor:    serve.GovernorConfig{WindowNs: 1, QueueHigh: 96, MissNum: 1, MissDen: 5, RecoverDepth: 24, DegradedDiv: 4},
	}, alg, gen, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	mean := sim.Calibrate(1000)
	sim.SetDeadlineNs(150 * mean)
	sim.SetGovernorWindowNs(30 * mean)
	sim.SetArrivals(workload.NewPoisson(seed+2, float64(mean)/2.5))
	if armed {
		sim.ArmMetrics(metrics.Config{WidthNs: 64 * mean, BudgetNs: 40 * mean, Exemplars: 5})
	}
	return sim
}

// BenchmarkServeStep measures the serving event loop's per-event cost,
// disarmed and with the metrics collector armed — the armed column is
// the observability tax on the hot path and must stay allocation-free
// (guarded by make bench-diff alongside the access-path benchmarks).
func BenchmarkServeStep(b *testing.B) {
	for _, armed := range []bool{false, true} {
		name := "disarmed"
		if armed {
			name = "armed"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sim := benchServeSim(b, 1, armed)
			b.ResetTimer()
			for steps := 0; steps < b.N; steps++ {
				if !sim.Step() {
					b.StopTimer()
					sim = benchServeSim(b, uint64(steps)+2, armed)
					b.StartTimer()
				}
			}
		})
	}
}
