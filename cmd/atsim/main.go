// Command atsim runs one address-translation simulation: a workload
// against a memory-management algorithm, printing the cost counters of the
// address-translation cost model.
//
// Examples:
//
//	atsim -workload bimodal -algo hugepage -h 64
//	atsim -workload graphwalk -algo decoupled -alloc iceberg
//	atsim -workload graph500 -algo hybrid -g 4
//	atsim -workload zipf -zipf-s 1.2 -algo decoupled
//	atsim -workload bimodal -algo thp -h 64 -explain
//
// A run's lifecycle is obs.Run's, as for cmd/figures: every value atsim
// can judge from its flags (the names given to -algo, -workload, -alloc,
// -tlb-policy, -ram-policy and -serve-arrivals, the model's and the
// serve cell's ranges, -serve with -replay or with a raw-run flag it
// would ignore) and the ADDRXLAT_FAULTS plan
// are checked first, and a rejected invocation exits 2 having written
// nothing. The run then writes its manifest as "running", and run.Exit
// ends it "ok", "canceled" (SIGINT/SIGTERM, exit 130) or "failed" (exit
// 1). The run's side files go next to the manifest, named atsim.*
// (atsim-serve.* under -serve): .curves.tsv (or -curves), .explain.tsv
// and .json, .timeline.tsv under -trace, and .serve.metrics.tsv with
// -serve-metrics. One that cannot be written fails the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"addrxlat/internal/core"
	"addrxlat/internal/event"
	"addrxlat/internal/experiments"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/graph500"
	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/obs"
	"addrxlat/internal/policy"
	"addrxlat/internal/prof"
	"addrxlat/internal/serve"
	"addrxlat/internal/trace"
	"addrxlat/internal/workload"
)

// The names -algo, -workload and -alloc accept: buildAlgorithm takes
// every algorithm, buildGenerator every streaming generator, and
// buildWorkload the generators plus graph500.
const (
	algorithmNames = "hugepage|decoupled|hybrid|thp|superpage|hawkeye|directseg|coalesced|nested|tlb-only|ram-only"
	generatorNames = "bimodal|graphwalk|uniform|zipf|sequential"
	allocNames     = "full|single|iceberg"
)

func main() {
	var (
		wl       = flag.String("workload", "bimodal", "workload: "+generatorNames+"|graph500")
		algo     = flag.String("algo", "hugepage", "algorithm: "+algorithmNames)
		alloc    = flag.String("alloc", "iceberg", "decoupled allocation scheme: full|single|iceberg")
		h        = flag.Uint64("h", 1, "huge-page size for -algo hugepage")
		g        = flag.Uint64("g", 2, "group size for -algo hybrid")
		vPages   = flag.Uint64("vpages", 1<<20, "virtual address space, base pages")
		ramPg    = flag.Uint64("ram", 1<<18, "physical memory, base pages")
		tlbEnt   = flag.Int("tlb", 1536, "TLB entries")
		wBits    = flag.Int("w", 64, "TLB value bits")
		tlbPol   = flag.String("tlb-policy", "lru", "TLB replacement policy")
		ramPol   = flag.String("ram-policy", "lru", "RAM replacement policy")
		warmN    = flag.Int("warmup", 1_000_000, "warmup accesses")
		measN    = flag.Int("measure", 1_000_000, "measured accesses")
		hotFrac  = flag.Float64("hot-prob", 0.9999, "bimodal hot-access probability")
		hotPg    = flag.Uint64("hot", 1<<14, "bimodal hot-region pages")
		zipfS    = flag.Float64("zipf-s", 1.1, "zipf exponent")
		alpha    = flag.Float64("alpha", 0.01, "graphwalk Pareto alpha")
		gscale   = flag.Int("gscale", 16, "graph500 scale (log2 vertices)")
		seed     = flag.Uint64("seed", 1, "random seed")
		eps      = flag.Float64("eps", 0.01, "TLB-miss cost ε")
		dumpTo   = flag.String("dump-trace", "", "also write the measured trace to this file")
		replay   = flag.String("replay", "", "replay a recorded trace file instead of generating a workload")
		sample   = flag.Uint64("sample", 0, "record a cost-over-time curve every N accesses (0 disables)")
		explainF = flag.Bool("explain", false, "attribute costs: print the event breakdown and write atsim.explain.tsv/.json next to the manifest")
		curves   = flag.String("curves", "", "cost-curve output file (default <manifest dir>/atsim.curves.tsv)")
		maniDir  = flag.String("manifest", "results", "write a run-manifest JSON into this directory (empty disables)")
		traceF   = flag.String("trace", "", "export a Perfetto-loadable execution trace (Chrome trace-event JSON) of the run to this file; counters stay byte-identical")

		serveF        = flag.Bool("serve", false, "run the discrete-event serving front-end over the workload and algorithm instead of a raw access run (see DESIGN.md §13)")
		serveLoad     = flag.Float64("serve-load", 1.0, "offered load, as a multiple of the calibrated capacity (mean service rate)")
		serveReq      = flag.Int("serve-requests", 5000, "requests offered to the serving run")
		serveWarm     = flag.Int("serve-warmup", 1000, "closed-loop calibration requests before the measured run")
		serveBlock    = flag.Int("serve-block", 256, "pages each request accesses")
		serveDeadline = flag.Int64("serve-deadline", 80, "request deadline, in multiples of the calibrated mean service time (0 disables deadlines)")
		serveArr      = flag.String("serve-arrivals", "poisson", "arrival process: poisson|burst|diurnal")
		serveQueue    = flag.Int("serve-queue", 256, "admission queue capacity")
		serveAttempts = flag.Int("serve-attempts", 3, "total service attempts for requests hitting decoupling failure IOs")
		serveMetrics  = flag.Bool("serve-metrics", false, "arm the virtual-time window collector on the serving run: print the per-window summary and slowest-request exemplars, record windows/SLO/exemplars in the manifest, and (with -manifest) write atsim-serve.serve.metrics.tsv next to it")
	)
	profile := prof.Register(nil)
	flag.Parse()
	// Every check of the invocation comes before the run starts: a
	// rejected run exits 2 and leaves no profile, manifest or side file.
	reject(faultinject.ArmFromEnv())
	reject(checkModelFlags(*eps, *wBits, *warmN, *measN))
	reject(checkNames(*algo, *alloc, *tlbPol, *ramPol, *wl, *replay != "", *serveF))
	var arrivals func(meanNs int64) workload.ArrivalProcess
	if *serveF {
		reject(checkServeIgnores(flag.CommandLine))
		reject(checkServeFlags(*serveReq, *serveBlock, *serveQueue, *serveWarm, *serveAttempts, *serveDeadline, *serveLoad))
		var err error
		arrivals, err = serveArrivals(*serveArr, *seed+2, *serveLoad)
		reject(err)
	}

	run := obs.StartRun(obs.RunConfig{Command: "atsim", Seed: *seed, Profile: profile,
		Manifest: *maniDir, Files: *maniDir, Trace: *traceF})
	if *serveF {
		gen, err := buildGenerator(*wl, *vPages, *hotPg, *hotFrac, *zipfS, *alpha, *seed)
		if err != nil {
			run.Exit(err)
		}
		alg, err := buildAlgorithm(*algo, core.AllocKind(*alloc), *h, *g, *vPages, *ramPg,
			*tlbEnt, *wBits, policy.Kind(*tlbPol), policy.Kind(*ramPol), *seed)
		if err != nil {
			run.Exit(err)
		}
		// The sweep's policy, with the run's shape from the -serve-* flags.
		rec := experiments.ServePolicy(*serveMetrics)
		rec.Table, rec.Workload, rec.Loads = "atsim-serve", *wl, []float64{*serveLoad}
		rec.Requests, rec.Warmup, rec.BlockPages = *serveReq, *serveWarm, *serveBlock
		rec.DeadlineNs, rec.MaxAttempts = *serveDeadline, *serveAttempts
		sizeServeQueue(&rec, *serveQueue)
		x := run.Begin("atsim", 0)
		if err := runServeMode(alg, gen, rec, arrivals, *seed, x.Rec); err != nil {
			run.Exit(err)
		}
		rr, err := x.End(obs.RunRecord{ID: "serve", Table: rec.Table, Rows: 1}, rec.Table)
		if err != nil {
			run.Exit(err)
		}
		printTimelines(rr)
		run.Exit(nil)
	}

	var (
		src stream
		err error
	)
	if *replay != "" {
		*wl = "replay:" + *replay
		// The recording stays open until the process exits.
		if src, _, err = openReplay(*replay, *warmN, *measN); err != nil {
			run.Exit(err)
		}
	} else if src, err = buildWorkload(*wl, *vPages, *warmN, *measN, *hotPg, *hotFrac, *zipfS, *alpha, *gscale, *seed); err != nil {
		run.Exit(err)
	}
	*warmN, *measN = src.warmN, src.measN
	if src.vSpace > 0 {
		*vPages = src.vSpace
	}

	alg, err := buildAlgorithm(*algo, core.AllocKind(*alloc), *h, *g, *vPages, *ramPg,
		*tlbEnt, *wBits, policy.Kind(*tlbPol), policy.Kind(*ramPol), *seed)
	if err != nil {
		run.Exit(err)
	}
	if *explainF {
		mm.EnableExplain(alg)
	}

	x := run.Begin("atsim", *sample)
	x.Curves = *curves
	if x.Curves == "" && *maniDir != "" {
		x.Curves = filepath.Join(*maniDir, "atsim.curves.tsv")
	}
	costs, dumpStats, err := runStream(run.Ctx, alg, *wl, src, *dumpTo, x.Rec)
	if err != nil {
		run.Exit(err)
	}
	// The measured window's attribution (ResetCosts resets the explain
	// counters with the costs, so only post-warmup events remain).
	ev := event.Sample(*wl, mm.PhaseMeasured, alg.Name(), alg, *explainF)
	if ev.Explain != nil {
		x.Rec.Observe(ev)
	}
	rr, err := x.End(obs.RunRecord{ID: *algo, Table: *wl, Rows: 1}, "atsim")
	if err != nil {
		run.Exit(err)
	}
	fmt.Printf("algorithm: %s\n", alg.Name())
	fmt.Printf("workload:  %s (%d warmup + %d measured accesses)\n", *wl, *warmN, *measN)
	fmt.Println(machineLine(*vPages, *ramPg, *tlbEnt, *wBits))
	fmt.Printf("costs:     %s\n", costs)
	fmt.Printf("total:     C = %.2f  (ε=%.3g)\n", costs.Total(*eps), *eps)
	if z, ok := alg.(*mm.Decoupled); ok {
		fmt.Printf("decoupled: %s\n", z.Params())
		fmt.Printf("failures:  %d lifetime paging failures, %d failure-path accesses\n",
			z.Scheme().TotalFailures(), z.FailureHits())
	}
	if c := ev.Explain; c != nil {
		fmt.Printf("explain:   ios = %d demand + %d amplified + %d failure (%d evictions)\n",
			c.IODemand, c.IOAmplified, c.IOFailure, c.Evictions)
		fmt.Printf("           tlb = %d compulsory + %d capacity + %d coverage-loss (%d invalidations), %d decode misses\n",
			c.TLBCompulsory, c.TLBCapacity, c.TLBCoverageLoss, c.TLBInvalidations, c.DecodeMisses)
		if g := ev.Gauges; g != nil {
			fmt.Printf("gauges:    util=%.4f frag=%.4f coverage=%d pages/entry, tlb reach=%d pages\n",
				g.Utilization, g.Fragmentation, g.CoveragePages, g.TLBReachPages)
			if g.HasLoads {
				fmt.Printf("buckets:   n=%d avg=%.2f max=%d, Theorem 2 bound=%.1f\n",
					g.Buckets, g.AvgLoad, g.MaxLoad, g.Theorem2Bound)
			}
		}
	}
	if *dumpTo != "" {
		fmt.Printf("trace:     wrote %d accesses to %s (%s)\n", *measN, *dumpTo, dumpStats)
	}
	if x.Rec.HasSeries() && x.Curves != "" {
		fmt.Printf("curves:    wrote cost-over-time series to %s\n", x.Curves)
	}
	if rr.Explain != nil && *maniDir != "" {
		base := filepath.Join(*maniDir, "atsim.explain")
		fmt.Printf("explain:   wrote attribution to %s.tsv and %s.json\n", base, base)
	}
	printTimelines(rr)
	run.Exit(nil)
}

// printTimelines prints the straggler digest of each row the run
// traced (-trace).
func printTimelines(rr obs.RunRecord) {
	for _, rep := range rr.Timeline {
		fmt.Printf("timeline:  %s\n", rep.Summary())
	}
}

// runStream runs alg over src's warmup and measured windows through the
// experiments' row executor, under the row label row: one streamed row
// of one simulator, observed by rec at every chunk boundary and drained
// at a chunk boundary when ctx is canceled. With dumpTo set, the measured
// window is re-encoded to that file as it streams, and its stats string
// returned.
func runStream(ctx context.Context, alg mm.Algorithm, row string, src stream, dumpTo string, rec *obs.Recorder) (mm.Costs, string, error) {
	gen := src.gen
	var tee *teeWindow
	if dumpTo != "" {
		out, err := os.Create(dumpTo)
		if err != nil {
			return mm.Costs{}, "", err
		}
		defer out.Close()
		tw, err := trace.NewWriter(out, uint64(src.measN))
		if err != nil {
			return mm.Costs{}, "", err
		}
		tee = &teeWindow{Generator: gen, skip: src.warmN, w: tw}
		gen = tee
	}
	s := experiments.Scale{Observer: rec, Ctx: ctx}
	if err := experiments.RunStream(s, row, gen, src.warmN, src.measN, alg); err != nil {
		return mm.Costs{}, "", err
	}
	if tee == nil {
		return alg.Costs(), "", nil
	}
	if tee.err != nil {
		return mm.Costs{}, "", tee.err
	}
	if err := tee.w.Close(); err != nil {
		return mm.Costs{}, "", err
	}
	return alg.Costs(), tee.acc.Stats().String(), nil
}

// teeWindow passes a generator through and re-encodes the requests it
// yields after the first skip into a trace writer, accumulating their
// stats: -dump-trace's recording of the measured window, written while
// the row streams it. The first write error is kept and ends the
// recording; the run itself is unaffected.
type teeWindow struct {
	workload.Generator
	skip int
	w    *trace.Writer
	acc  trace.Accumulator
	err  error
}

func (t *teeWindow) Next() uint64 {
	v := [1]uint64{t.Generator.Next()}
	t.record(v[:])
	return v[0]
}

// NextBatch implements workload.Batcher, the path the row executor's
// ring producer fills chunks through.
func (t *teeWindow) NextBatch(dst []uint64) {
	workload.Fill(t.Generator, dst)
	t.record(dst)
}

func (t *teeWindow) record(vs []uint64) {
	if t.skip >= len(vs) {
		t.skip -= len(vs)
		return
	}
	vs, t.skip = vs[t.skip:], 0
	if t.err == nil {
		t.acc.Add(vs)
		t.err = t.w.Write(vs)
	}
}

// replayStats summarizes a recorded trace in one streaming pass (O(chunk)
// memory apart from the distinct-page set).
func replayStats(path string) (trace.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Stats{}, err
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		return trace.Stats{}, err
	}
	if tr.Count() == 0 {
		return trace.Stats{}, fmt.Errorf("trace %s is empty", path)
	}
	var acc trace.Accumulator
	buf := make([]uint64, workload.DefaultChunk)
	for {
		n, err := tr.Read(buf)
		acc.Add(buf[:n])
		if err == io.EOF {
			return acc.Stats(), nil
		}
		if err != nil {
			return trace.Stats{}, err
		}
	}
}

// openReplay opens a recorded trace as a streaming source: a stats
// pre-pass sizes the address space and clamps the windows to the
// recording, then the run decodes it chunk by chunk — replay memory is
// O(chunk), not O(trace). The caller closes the returned file.
func openReplay(path string, warmN, measN int) (stream, *os.File, error) {
	st, err := replayStats(path)
	if err != nil {
		return stream{}, nil, err
	}
	if uint64(warmN)+uint64(measN) > st.Accesses {
		warmN = int(st.Accesses / 2)
		measN = int(st.Accesses) - warmN
	}
	f, err := os.Open(path)
	if err != nil {
		return stream{}, nil, err
	}
	sr, err := workload.NewStreamReplay(f, 0)
	if err != nil {
		f.Close()
		return stream{}, nil, err
	}
	return stream{gen: sr, warmN: warmN, measN: measN, vSpace: st.MaxPage + 1}, f, nil
}

// buildGenerator constructs the streaming generator workloads — the ones
// the serving front-end can drive directly (graph500 and replay are
// materialized traces, not generators).
func buildGenerator(kind string, vPages, hotPg uint64, hotProb, zipfS, alpha float64, seed uint64) (workload.Generator, error) {
	switch kind {
	case "bimodal":
		return workload.NewBimodal(hotPg, vPages, hotProb, seed)
	case "graphwalk":
		return workload.NewGraphWalk(vPages, alpha, seed)
	case "uniform":
		return workload.NewUniform(vPages, seed)
	case "zipf":
		return workload.NewZipf(vPages, zipfS, seed)
	case "sequential":
		return workload.NewSequential(vPages)
	default:
		return nil, fmt.Errorf("workload %q is not a streaming generator (want %s)", kind, generatorNames)
	}
}

// stream is one run's request source: the generator and the window
// lengths drawn from it. vSpace, when nonzero, is the source's own
// address space, which replaces -vpages.
type stream struct {
	gen          workload.Generator
	warmN, measN int
	vSpace       uint64
}

// buildWorkload constructs the -workload stream: a streaming generator,
// or for graph500 a replay of one BFS excerpt, whose length clamps the
// windows and whose footprint sizes the address space.
func buildWorkload(kind string, vPages uint64, warmN, measN int, hotPg uint64, hotProb, zipfS, alpha float64, gscale int, seed uint64) (stream, error) {
	switch kind {
	case "bimodal", "graphwalk", "uniform", "zipf", "sequential":
		gen, err := buildGenerator(kind, vPages, hotPg, hotProb, zipfS, alpha, seed)
		return stream{gen: gen, warmN: warmN, measN: measN}, err
	case "graph500":
		g, err := graph500.Generate(graph500.Config{Scale: gscale, EdgeFactor: 16, Seed: seed})
		if err != nil {
			return stream{}, err
		}
		res, err := g.BFSTrace(g.HighestDegreeVertex(), graph500.DefaultLayout(), warmN+measN)
		if err != nil {
			return stream{}, err
		}
		if len(res.Trace) < warmN+measN {
			warmN = len(res.Trace) / 2
			measN = len(res.Trace) - warmN
		}
		gen, err := workload.NewReplay(res.Trace)
		return stream{gen: gen, warmN: warmN, measN: measN, vSpace: res.Footprint.TotalPages}, err
	default:
		return stream{}, fmt.Errorf("unknown workload %q", kind)
	}
}

func buildAlgorithm(kind string, alloc core.AllocKind, h, g, vPages, ramPages uint64,
	tlbEntries, wBits int, tlbPol, ramPol policy.Kind, seed uint64) (mm.Algorithm, error) {
	switch kind {
	case "hugepage":
		return mm.NewHugePage(mm.HugePageConfig{
			HugePageSize: h, TLBEntries: tlbEntries, RAMPages: ramPages,
			TLBPolicy: tlbPol, RAMPolicy: ramPol, Seed: seed,
		})
	case "decoupled":
		return mm.NewDecoupled(mm.DecoupledConfig{
			Alloc: alloc, RAMPages: ramPages, VirtualPages: vPages,
			TLBEntries: tlbEntries, ValueBits: wBits,
			TLBPolicy: tlbPol, RAMPolicy: ramPol, Seed: seed,
		})
	case "hybrid":
		return mm.NewHybrid(mm.HybridConfig{
			Decoupled: mm.DecoupledConfig{
				Alloc: alloc, RAMPages: ramPages, VirtualPages: vPages,
				TLBEntries: tlbEntries, ValueBits: wBits,
				TLBPolicy: tlbPol, RAMPolicy: ramPol, Seed: seed,
			},
			GroupSize: g,
		})
	case "thp":
		return mm.NewTHP(mm.THPConfig{
			HugePageSize: h, TLBEntries: tlbEntries, RAMPages: ramPages, Seed: seed,
		})
	case "superpage":
		return mm.NewSuperpage(mm.SuperpageConfig{
			HugePageSize: h, TLBEntries: tlbEntries, RAMPages: ramPages, Seed: seed,
		})
	case "hawkeye":
		return mm.NewHawkEye(mm.HawkEyeConfig{
			HugePageSize: h, TLBEntries: tlbEntries, RAMPages: ramPages, Seed: seed,
		})
	case "directseg":
		return mm.NewDirectSegment(mm.DirectSegmentConfig{
			SegmentStart: 0, SegmentPages: ramPages / 2,
			TLBEntries: tlbEntries, RAMPages: ramPages, Seed: seed,
		})
	case "coalesced":
		return mm.NewCoalesced(mm.CoalescedConfig{
			CoalesceLimit: 8, TLBEntries: tlbEntries,
			RAMPages: ramPages, VirtualPages: vPages, Seed: seed,
		})
	case "nested":
		return mm.NewNested(mm.NestedConfig{
			GuestHugePageSize: h, HostHugePageSize: 1,
			GuestTLBEntries: tlbEntries, HostTLBEntries: tlbEntries,
			RAMPages: ramPages, Seed: seed,
		})
	case "tlb-only":
		return mm.NewTLBOnly(h, tlbEntries, tlbPol, seed)
	case "ram-only":
		return mm.NewRAMOnly(ramPages, ramPol, seed)
	default:
		return nil, fmt.Errorf("unknown algorithm %q", kind)
	}
}

// checkModelFlags rejects cost-model flags outside the model's range
// (DESIGN.md §1): ε must lie in (0, 1), and w must be non-negative, where
// 0 selects the default of 64 bits. flag.Float64 parses "NaN", which
// fails every comparison, so the ε test is written to reject it. The
// two windows of the methodology, -warmup and -measure, must be
// non-negative; either may be empty.
func checkModelFlags(eps float64, wBits, warmup, measure int) error {
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("-eps must be in (0, 1), got %g", eps)
	}
	if wBits < 0 {
		return fmt.Errorf("-w must be non-negative (0 means 64 bits), got %d", wBits)
	}
	if warmup < 0 {
		return fmt.Errorf("-warmup must be non-negative, got %d", warmup)
	}
	if measure < 0 {
		return fmt.Errorf("-measure must be non-negative, got %d", measure)
	}
	return nil
}

// sizeServeQueue sizes rec's queue, token bucket and governor depths
// from -serve-queue, keeping the sweep's ratios: the governor trips at
// 3/4 of the queue and recovers at 1/4 of the trip depth, serve.New's
// own default. At the sweep's queue of 256 that is the sweep's cell.
func sizeServeQueue(rec *serve.SweepRecord, queue int) {
	rec.QueueCap, rec.Burst = queue, int64(queue)
	rec.Governor.QueueHigh = queue * 3 / 4
	rec.Governor.RecoverDepth = rec.Governor.QueueHigh / 4
}

// checkServeFlags rejects -serve-* values that the serve cell would
// refuse or run differently from how the report prints them: the run
// offers at least one request of at least one page to a queue of at
// least one slot, calibration runs at least one request, a request gets
// at least one attempt, a negative deadline would run as 0, which
// disables deadlines, and the offered load is finite and positive
// (flag.Float64 parses "NaN" and "Inf", and NaN passes a <= 0 check).
func checkServeFlags(requests, block, queue, warmup, attempts int, deadline int64, load float64) error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"-serve-requests", requests}, {"-serve-block", block}, {"-serve-queue", queue},
		{"-serve-warmup", warmup}, {"-serve-attempts", attempts},
	} {
		if f.v < 1 {
			return fmt.Errorf("%s must be at least 1, got %d", f.name, f.v)
		}
	}
	if deadline < 0 {
		return fmt.Errorf("-serve-deadline must be non-negative (0 disables deadlines), got %d", deadline)
	}
	if !(load > 0) || math.IsInf(load, 1) {
		return fmt.Errorf("-serve-load must be finite and positive, got %g", load)
	}
	return nil
}

// serveIgnores are the raw-run flags a -serve run has no use for: it
// sizes its own windows (-serve-warmup, -serve-requests), prices no ε,
// generates no graph500 and writes no trace dump, attribution or cost
// curves.
var serveIgnores = []string{"dump-trace", "explain", "sample", "curves", "warmup", "measure", "eps", "gscale"}

// checkServeIgnores rejects a flag of serveIgnores set explicitly on fs
// (a -serve run), which the run would otherwise silently ignore.
func checkServeIgnores(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(serveIgnores, f.Name) {
			err = fmt.Errorf("-%s configures a raw access run; -serve would ignore it", f.Name)
		}
	})
	return err
}

// checkNames rejects a name -algo, -alloc, -tlb-policy, -ram-policy or
// -workload does not accept, and -serve with -replay. A -replay run
// reads its requests from the recording and ignores -workload; -serve
// drives a streaming generator, so it takes no recording and no
// graph500.
func checkNames(algo, alloc, tlbPol, ramPol, wl string, replay, serve bool) error {
	if serve && replay {
		return errors.New("-serve drives a live generator; it cannot replay a trace")
	}
	var policies []string
	for _, k := range policy.Kinds() {
		policies = append(policies, string(k))
	}
	type choice struct {
		flag, name string
		names      []string
	}
	choices := []choice{
		{"-algo", algo, strings.Split(algorithmNames, "|")},
		{"-alloc", alloc, strings.Split(allocNames, "|")},
		{"-tlb-policy", tlbPol, policies},
		{"-ram-policy", ramPol, policies},
	}
	if !replay {
		workloads := strings.Split(generatorNames, "|")
		if !serve {
			workloads = append(workloads, "graph500")
		}
		choices = append(choices, choice{"-workload", wl, workloads})
	}
	for _, c := range choices {
		if !slices.Contains(c.names, c.name) {
			return fmt.Errorf("%s %q is not one of %s", c.flag, c.name, strings.Join(c.names, "|"))
		}
	}
	return nil
}

// reject ends a rejected invocation before the run starts: it reports
// err and exits 2, writing nothing. A nil err lets the run go on.
func reject(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "atsim: %v\n", err)
		os.Exit(2)
	}
}

// machineLine is the `machine:` line of a run's report, with the value
// width w the run uses: -w 0 selects the default of 64 bits.
func machineLine(vPages, ramPages uint64, tlbEntries, wBits int) string {
	if wBits == 0 {
		wBits = 64
	}
	return fmt.Sprintf("machine:   V=%d pages, P=%d pages, TLB=%d entries, w=%d bits",
		vPages, ramPages, tlbEntries, wBits)
}

// serveArrivals returns the -serve-arrivals process, built from the
// calibrated mean service time at the offered load.
func serveArrivals(kind string, seed uint64, load float64) (func(meanNs int64) workload.ArrivalProcess, error) {
	switch kind {
	case "poisson":
		return func(mean int64) workload.ArrivalProcess {
			return workload.NewPoisson(seed, float64(mean)/load)
		}, nil
	case "burst":
		// 50% duty cycle at twice the rate: same offered load, bursty.
		return func(mean int64) workload.ArrivalProcess {
			return workload.NewOnOffBurst(seed, float64(mean)/(2*load), 500*mean, 500*mean)
		}, nil
	case "diurnal":
		return func(mean int64) workload.ArrivalProcess {
			return workload.NewDiurnal(seed, float64(mean)/load, []int64{2000 * mean}, []float64{0.5})
		}, nil
	}
	return nil, fmt.Errorf("unknown -serve-arrivals %q (want poisson|burst|diurnal)", kind)
}

// runServeMode runs one cell of the serve sweep (DESIGN.md §13) under
// rec's policy, at its one offered load, over one algorithm, with the
// arrival process newArrivals builds from the calibrated mean service
// time, and prints the serve taxonomy and latency quantiles. o observes
// the cell as a sweep's observer would: one serve phase and the sweep
// record, with its one point, which the run's record takes. The cell's
// fault key has the sweep's form, "atsim-serve|<alg>|load=<l>", so an
// armed serve-burst rule fires here as it does in sv1–sv3.
func runServeMode(alg mm.Algorithm, gen workload.Generator, rec serve.SweepRecord, newArrivals func(meanNs int64) workload.ArrivalProcess, seed uint64, o event.Observer) error {
	load := rec.Loads[0]
	var arr workload.ArrivalProcess
	start := time.Now()
	pt, err := rec.RunCell(serve.Cell{
		Name: alg.Name(), Alg: alg, Gen: gen, Load: load, Seed: seed,
		Arrivals: func(mean int64) workload.ArrivalProcess {
			arr = newArrivals(mean)
			return arr
		},
		FaultKey: fmt.Sprintf("%s|%s|load=%g", rec.Table, alg.Name(), load),
	})
	if err != nil {
		return err
	}
	end := time.Now()

	c, mean := pt.Counters, pt.MeanServiceNs
	fmt.Printf("algorithm: %s\n", alg.Name())
	fmt.Printf("serving:   %s arrivals at %.2fx capacity, %d requests of %d pages (calibrated on %d)\n",
		arr.Name(), load, rec.Requests, rec.BlockPages, rec.Warmup)
	fmt.Printf("capacity:  mean service %d ns -> %.1f req/s; deadline %dx mean, queue cap %d, %d attempts\n",
		mean, 1e9/float64(mean), rec.DeadlineNs, rec.QueueCap, rec.MaxAttempts)
	fmt.Printf("taxonomy:  offered %d = admitted %d + rejected %d (queue %d, throttle %d)\n",
		c.Offered, c.Admitted, c.RejectedQueue+c.RejectedThrottle, c.RejectedQueue, c.RejectedThrottle)
	fmt.Printf("           admitted %d = completed %d + timed out %d (queued %d, served %d) + shed %d\n",
		c.Admitted, c.Completed, c.TimedOutQueued+c.TimedOutServed, c.TimedOutQueued, c.TimedOutServed, c.Shed)
	fmt.Printf("           retries %d (exhausted %d), degraded %d, governor trips %d / recovers %d\n",
		c.Retries, c.RetryExhausted, c.Degraded, c.GovernorTrips, c.GovernorRecovers)
	fmt.Printf("goodput:   %.1f req/s over a %.3fs virtual horizon\n",
		pt.GoodputPerSec, float64(pt.HorizonNs)/1e9)
	fmt.Printf("latency:   p50 %d ns, p99 %d ns, p999 %d ns (completed requests; max queue depth %d)\n",
		pt.P50Ns, pt.P99Ns, pt.P999Ns, pt.MaxQueueDepth)
	if m := pt.Metrics; m != nil {
		printServeMetrics(m)
	}

	rec.Arrivals = arr.Name()
	rec.Points = []serve.Point{pt}
	// In the trace the run is one serve cell of an "atsim" table: its wall
	// span and, with -serve-metrics, its virtual-time threads.
	o.Observe(event.Event{Kind: event.KindPhase, Row: "atsim", Phase: event.PhaseServe,
		Alg: fmt.Sprintf("%s|load=%g", pt.Alg, pt.Load), At: end, Accesses: rec.Requests, Elapsed: end.Sub(start)})
	o.Observe(event.Event{Kind: event.KindServe, Row: "atsim", At: end, Serve: &rec})
	return nil
}

// printServeMetrics renders the windowed telemetry stream of a
// -serve-metrics run: one line per virtual-time window, the SLO verdict,
// and the slowest-request exemplars with their causal latency split.
func printServeMetrics(m *metrics.Record) {
	fmt.Printf("windows:   %d of %d ns; SLO p99 <= %d ns: %d violation(s), burn rate %.1f%%, longest streak %d\n",
		len(m.Windows), m.WidthNs, m.SLO.BudgetNs, m.SLO.Violations, m.SLO.BurnRatePct(), m.SLO.MaxStreak)
	fmt.Printf("  %6s %14s %9s %9s %7s %7s %9s %7s %6s %12s %12s %s\n",
		"win", "start_ns", "admitted", "completed", "shed", "t_out", "retries", "queue", "tokens", "p50_ns", "p99_ns", "flags")
	for i := range m.Windows {
		w := &m.Windows[i]
		flags := ""
		if w.Degraded {
			flags += "D"
		}
		if w.Violation {
			flags += "V"
		}
		fmt.Printf("  %6d %14d %9d %9d %7d %7d %9d %7d %6d %12d %12d %s\n",
			w.Index, w.StartNs, w.Admitted, w.Completed, w.Shed, w.TimedOut,
			w.Retries, w.QueueDepth, w.Tokens, w.P50Ns, w.P99Ns, flags)
	}
	if len(m.Exemplars) > 0 {
		fmt.Printf("slowest:   %d exemplar(s) — where the tail latency went\n", len(m.Exemplars))
		for _, ex := range m.Exemplars {
			fmt.Printf("  req#%-8d %-16s latency %12d ns = queued %d + service %d + backoff %d (attempts %d, failure IOs %d, degraded %v)\n",
				ex.Seq, ex.Outcome, ex.LatencyNs, ex.QueuedNs, ex.ServiceNs, ex.BackoffNs,
				ex.Attempts, ex.FailureIOs, ex.Degraded)
		}
	}
}
