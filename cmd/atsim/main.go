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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
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
	"addrxlat/internal/xtrace"
)

// profile is flushed on every exit path, including fail().
var profile *prof.Flags

// exitMan/exitManDir let fail() and cancellation flush the run manifest
// with an honest status before exiting.
var (
	exitMan    *obs.Manifest
	exitManDir string
)

// exitTrace is the armed execution tracer (-trace), flushed on every exit
// path — a canceled simulation still exports a well-formed trace, since
// the row executor drains at a chunk boundary before fail() runs. obs's
// Trace draws into it from the run's events.
var (
	exitTrace     *xtrace.Tracer
	exitTracePath string
)

// flushTrace writes the Chrome trace-event JSON. Idempotent, best effort.
func flushTrace() {
	t := exitTrace
	if t == nil {
		return
	}
	exitTrace = nil
	if err := t.WriteFile(exitTracePath); err != nil {
		fmt.Fprintf(os.Stderr, "atsim: trace: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "atsim: wrote execution trace %s; load it at https://ui.perfetto.dev\n", exitTracePath)
	}
}

// The names -algo and -workload accept: buildAlgorithm takes every
// algorithm, buildGenerator every streaming generator, and buildWorkload
// the generators plus graph500.
const (
	algorithmNames = "hugepage|decoupled|hybrid|thp|superpage|hawkeye|directseg|coalesced|nested|tlb-only|ram-only"
	generatorNames = "bimodal|graphwalk|uniform|zipf|sequential"
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
		serveArrivals = flag.String("serve-arrivals", "poisson", "arrival process: poisson|burst|diurnal")
		serveQueue    = flag.Int("serve-queue", 256, "admission queue capacity")
		serveAttempts = flag.Int("serve-attempts", 3, "total service attempts for requests hitting decoupling failure IOs")
		serveMetrics  = flag.Bool("serve-metrics", false, "arm the virtual-time window collector on the serving run: print the per-window summary and slowest-request exemplars, record windows/SLO/exemplars in the manifest, and (with -manifest) write atsim-serve.serve.metrics.tsv next to it")
	)
	profile = prof.Register(nil)
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		fail(err)
	}
	if err := profile.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if !flushProfile() {
			os.Exit(1)
		}
	}()

	// SIGINT/SIGTERM drain the simulation at the next chunk boundary; the
	// run exits 130 through fail() with a "canceled" manifest.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	man := obs.NewManifest("atsim", os.Args[1:])
	man.Config = obs.FlagConfig(nil)
	man.Seeds = []uint64{*seed}
	man.FaultPlan = faultinject.Plan()
	exitMan, exitManDir = man, *maniDir

	var timeline *obs.Trace
	if *traceF != "" {
		tracer := xtrace.New()
		timeline = obs.NewTrace(tracer)
		exitTrace, exitTracePath = tracer, *traceF
		man.Trace = *traceF
	}

	if err := checkModelFlags(*eps, *wBits); err != nil {
		fail(err)
	}

	if *serveF {
		if *replay != "" {
			fail(fmt.Errorf("-serve drives a live generator; it cannot replay a trace"))
		}
		gen, err := buildGenerator(*wl, *vPages, *hotPg, *hotFrac, *zipfS, *alpha, *seed)
		if err != nil {
			fail(err)
		}
		alg, err := buildAlgorithm(*algo, core.AllocKind(allocName(*alloc)), *h, *g, *vPages, *ramPg,
			*tlbEnt, *wBits, policy.Kind(*tlbPol), policy.Kind(*ramPol), *seed)
		if err != nil {
			fail(err)
		}
		rr, err := runServeMode(alg, gen, serveModeConfig{
			workload: *wl, seed: *seed,
			load: *serveLoad, requests: *serveReq, warmup: *serveWarm,
			blockPages: *serveBlock, deadlineMul: *serveDeadline,
			arrivals: *serveArrivals, queueCap: *serveQueue, attempts: *serveAttempts,
			metrics: *serveMetrics,
		}, timeline)
		if err != nil {
			fail(err)
		}
		if rr.Serve != nil && rr.Serve.HasMetrics() && *maniDir != "" {
			path := filepath.Join(*maniDir, "atsim-serve.serve.metrics.tsv")
			err := obs.WriteFile(path, func(w io.Writer) error { return serve.WriteMetricsTSV(w, rr.Serve) })
			if err != nil {
				fmt.Fprintf(os.Stderr, "atsim: serve metrics: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "atsim: wrote serve metrics windows to %s\n", path)
			}
		}
		man.Experiments = []obs.RunRecord{rr}
		flushTrace()
		flushManifest("ok", "")
		return
	}

	var (
		src stream
		err error
	)
	if *replay != "" {
		*wl = "replay:" + *replay
		var f *os.File
		if src, f, err = openReplay(*replay, *warmN, *measN); err != nil {
			fail(err)
		}
		defer f.Close()
	} else if src, err = buildWorkload(*wl, *vPages, *warmN, *measN, *hotPg, *hotFrac, *zipfS, *alpha, *gscale, *seed); err != nil {
		fail(err)
	}
	*warmN, *measN = src.warmN, src.measN
	if src.vSpace > 0 {
		*vPages = src.vSpace
	}

	alg, err := buildAlgorithm(*algo, core.AllocKind(allocName(*alloc)), *h, *g, *vPages, *ramPg,
		*tlbEnt, *wBits, policy.Kind(*tlbPol), policy.Kind(*ramPol), *seed)
	if err != nil {
		fail(err)
	}
	if *explainF {
		mm.EnableExplain(alg)
	}

	rec := obs.NewRecorder(*sample)
	rec.SetTrace(timeline)
	runStart := time.Now()
	costs, dumpStats, err := runStream(ctx, alg, *wl, src, *dumpTo, rec)
	if err != nil {
		fail(err)
	}
	runElapsed := time.Since(runStart)
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
	if ev := event.Sample(*wl, mm.PhaseMeasured, alg.Name(), alg, *explainF); ev.Explain != nil {
		// The measured window's attribution (ResetCosts resets the explain
		// counters with the costs, so only post-warmup events remain).
		c := ev.Explain
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
		rec.Observe(ev)
	}
	if *dumpTo != "" {
		fmt.Printf("trace:     wrote %d accesses to %s (%s)\n", *measN, *dumpTo, dumpStats)
	}

	if rec.HasSeries() {
		path := *curves
		if path == "" && *maniDir != "" {
			path = filepath.Join(*maniDir, "atsim.curves.tsv")
		}
		if path != "" {
			if err := obs.WriteFile(path, rec.WriteTSV); err != nil {
				fail(err)
			}
			fmt.Printf("curves:    wrote cost-over-time series to %s\n", path)
		}
	}
	if rec.HasExplain() && *maniDir != "" {
		base := filepath.Join(*maniDir, "atsim.explain")
		if err := obs.WriteFile(base+".tsv", rec.WriteExplainTSV); err != nil {
			fail(err)
		}
		if err := obs.WriteFile(base+".json", rec.WriteExplainJSON); err != nil {
			fail(err)
		}
		fmt.Printf("explain:   wrote attribution to %s.tsv and %s.json\n", base, base)
	}
	rr := obs.RunRecord{
		ID: *algo, Table: *wl, Rows: 1,
		WallSeconds: runElapsed.Seconds(), Phases: rec.Phases(),
	}
	if rec.HasExplain() {
		tot := rec.ExplainTotals()
		rr.Explain = &tot
	}
	if timeline != nil {
		rr.Timeline = rec.Timelines()
		for i := range rr.Timeline {
			rr.Timeline[i].Experiment = "atsim"
			fmt.Printf("timeline:  %s\n", rr.Timeline[i].Summary())
		}
	}
	man.Experiments = []obs.RunRecord{rr}
	flushTrace()
	flushManifest("ok", "")
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

func allocName(s string) string {
	switch s {
	case "full", "single", "iceberg":
		return s
	default:
		fail(fmt.Errorf("unknown alloc kind %q", s))
		return ""
	}
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

// flushProfile stops the CPU profile and writes the heap profile, if
// either was requested. It reports whether flushing succeeded.
func flushProfile() bool {
	if profile == nil {
		return true
	}
	if err := profile.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "atsim: %v\n", err)
		return false
	}
	return true
}

// flushManifest stamps the run's final status and writes the manifest.
// Best effort — a manifest failure must not fail the simulation it
// describes.
func flushManifest(status, errMsg string) {
	if exitMan == nil || exitManDir == "" {
		return
	}
	exitMan.Status = status
	exitMan.Partial = status != "ok"
	exitMan.Error = errMsg
	exitMan.Finish()
	if path, err := exitMan.Write(exitManDir); err != nil {
		fmt.Fprintf(os.Stderr, "atsim: manifest: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "atsim: wrote run manifest %s\n", path)
	}
}

// checkModelFlags rejects cost-model flags outside the model's range
// (DESIGN.md §1): ε must lie in (0, 1), and w must be non-negative, where
// 0 selects the default of 64 bits. flag.Float64 parses "NaN", which
// fails every comparison, so the ε test is written to reject it.
func checkModelFlags(eps float64, wBits int) error {
	if !(eps > 0 && eps < 1) {
		return fmt.Errorf("-eps must be in (0, 1), got %g", eps)
	}
	if wBits < 0 {
		return fmt.Errorf("-w must be non-negative (0 means 64 bits), got %d", wBits)
	}
	return nil
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

// fail flushes profiles and the manifest before exiting, since os.Exit
// skips defers. A canceled run (SIGINT/SIGTERM) exits 130 with a
// "canceled" manifest; everything else exits 1 with "failed".
func fail(err error) {
	flushProfile()
	flushTrace()
	status, code := "failed", 1
	if errors.Is(err, context.Canceled) {
		status, code = "canceled", 130
	}
	flushManifest(status, err.Error())
	fmt.Fprintf(os.Stderr, "atsim: %v\n", err)
	os.Exit(code)
}

// serveModeConfig carries the -serve-* flags into runServeMode.
type serveModeConfig struct {
	workload    string
	seed        uint64
	load        float64
	requests    int
	warmup      int
	blockPages  int
	deadlineMul int64
	arrivals    string
	queueCap    int
	attempts    int
	metrics     bool
}

// Metrics policy of -serve-metrics, mirroring the sv3 sweep: windows of
// 64× the calibrated mean service time, a 40×mean p99 budget, and 5
// slowest-request exemplars.
const (
	serveMetricsWindowMul = 64
	serveSLOBudgetMul     = 40
	serveExemplarK        = 5
)

// runServeMode drives the discrete-event serving front-end (DESIGN.md
// §13) over one algorithm: calibrate capacity closed-loop, scale the
// latency-sensitive knobs to the measured mean service time, then run the
// offered load open-loop and print the serve taxonomy and latency
// quantiles. The full sweep record lands in the manifest.
func runServeMode(alg mm.Algorithm, gen workload.Generator, cfg serveModeConfig, timeline *obs.Trace) (obs.RunRecord, error) {
	if !(cfg.load > 0) || math.IsInf(cfg.load, 1) {
		return obs.RunRecord{}, fmt.Errorf("-serve-load must be finite and positive, got %g", cfg.load)
	}
	// Explain stays on in serve mode: the retry machinery triggers on the
	// explain taxonomy's failure-IO counter.
	ec := mm.EnableExplain(alg)
	sim, err := serve.New(serve.Config{
		Seed:        cfg.seed,
		Requests:    cfg.requests,
		BlockPages:  cfg.blockPages,
		QueueCap:    cfg.queueCap,
		MaxAttempts: cfg.attempts,
		Governor: serve.GovernorConfig{
			WindowNs:     1, // rescaled to the calibrated mean below
			QueueHigh:    cfg.queueCap * 3 / 4,
			MissNum:      1,
			MissDen:      5,
			RecoverDepth: cfg.queueCap / 5,
			DegradedDiv:  4,
		},
	}, alg, gen, nil, ec)
	if err != nil {
		return obs.RunRecord{}, err
	}
	start := time.Now()
	mean := sim.Calibrate(cfg.warmup)
	sim.SetDeadlineNs(cfg.deadlineMul * mean)
	sim.SetGovernorWindowNs(20 * mean)
	sim.SetRetryBaseNs(4 * mean)
	sim.SetTokenBucket(mean/4+1, int64(cfg.queueCap))
	var arr workload.ArrivalProcess
	switch cfg.arrivals {
	case "poisson":
		arr = workload.NewPoisson(cfg.seed+2, float64(mean)/cfg.load)
	case "burst":
		// 50% duty cycle at twice the rate: same offered load, bursty.
		arr = workload.NewOnOffBurst(cfg.seed+2, float64(mean)/(2*cfg.load), 500*mean, 500*mean)
	case "diurnal":
		arr = workload.NewDiurnal(cfg.seed+2, float64(mean)/cfg.load, []int64{2000 * mean}, []float64{0.5})
	default:
		return obs.RunRecord{}, fmt.Errorf("unknown -serve-arrivals %q (want poisson|burst|diurnal)", cfg.arrivals)
	}
	sim.SetArrivals(arr)
	if cfg.metrics {
		sim.ArmMetrics(metrics.Config{
			WidthNs:   serveMetricsWindowMul * mean,
			BudgetNs:  serveSLOBudgetMul * mean,
			Exemplars: serveExemplarK,
		})
	}
	res := sim.Run()
	end := time.Now()
	elapsed := end.Sub(start)
	if err := res.Counters.CheckIdentity(); err != nil {
		return obs.RunRecord{}, err
	}

	c := res.Counters
	fmt.Printf("algorithm: %s\n", alg.Name())
	fmt.Printf("serving:   %s arrivals at %.2fx capacity, %d requests of %d pages (calibrated on %d)\n",
		arr.Name(), cfg.load, cfg.requests, cfg.blockPages, cfg.warmup)
	fmt.Printf("capacity:  mean service %d ns -> %.1f req/s; deadline %dx mean, queue cap %d, %d attempts\n",
		mean, 1e9/float64(mean), cfg.deadlineMul, cfg.queueCap, cfg.attempts)
	fmt.Printf("taxonomy:  offered %d = admitted %d + rejected %d (queue %d, throttle %d)\n",
		c.Offered, c.Admitted, c.RejectedQueue+c.RejectedThrottle, c.RejectedQueue, c.RejectedThrottle)
	fmt.Printf("           admitted %d = completed %d + timed out %d (queued %d, served %d) + shed %d\n",
		c.Admitted, c.Completed, c.TimedOutQueued+c.TimedOutServed, c.TimedOutQueued, c.TimedOutServed, c.Shed)
	fmt.Printf("           retries %d (exhausted %d), degraded %d, governor trips %d / recovers %d\n",
		c.Retries, c.RetryExhausted, c.Degraded, c.GovernorTrips, c.GovernorRecovers)
	fmt.Printf("goodput:   %.1f req/s over a %.3fs virtual horizon\n",
		res.GoodputPerSec(), float64(res.HorizonNs)/1e9)
	fmt.Printf("latency:   p50 %d ns, p99 %d ns, p999 %d ns (completed requests; max queue depth %d)\n",
		res.Latency.Quantile(0.50), res.Latency.Quantile(0.99), res.Latency.Quantile(0.999), res.MaxQueueDepth)
	if m := res.Metrics; m != nil {
		printServeMetrics(m)
	}

	pt := serve.PointFrom(alg.Name(), cfg.load, res)
	rec := serve.SweepRecord{
		Table:       "atsim-serve",
		Workload:    cfg.workload,
		Arrivals:    arr.Name(),
		Loads:       []float64{cfg.load},
		Requests:    cfg.requests,
		Warmup:      cfg.warmup,
		BlockPages:  cfg.blockPages,
		QueueCap:    cfg.queueCap,
		DeadlineNs:  cfg.deadlineMul, // multiples of the calibrated mean
		MaxAttempts: cfg.attempts,
		RetryBaseNs: 4,
		Cost:        serve.DefaultCostModel(),
		Governor: serve.GovernorConfig{
			WindowNs:     20,
			QueueHigh:    cfg.queueCap * 3 / 4,
			MissNum:      1,
			MissDen:      5,
			RecoverDepth: cfg.queueCap / 5,
			DegradedDiv:  4,
		},
		Points: []serve.Point{pt},
	}
	if cfg.metrics {
		rec.MetricsWindowMul = serveMetricsWindowMul
		rec.SLOBudgetMul = serveSLOBudgetMul
		rec.ExemplarK = serveExemplarK
	}
	// With -trace the run is one serve cell of an "atsim" table: its wall
	// span and, with -serve-metrics, its virtual-time threads.
	timeline.Observe(event.Event{Kind: event.KindPhase, Row: "atsim", Phase: event.PhaseServe,
		Alg: fmt.Sprintf("%s|load=%g", pt.Alg, pt.Load), At: end, Accesses: cfg.requests, Elapsed: elapsed})
	timeline.Observe(event.Event{Kind: event.KindServe, Row: "atsim", At: end, Serve: &rec})
	return obs.RunRecord{
		ID: "serve", Table: "atsim-serve", Rows: 1,
		WallSeconds: elapsed.Seconds(), Serve: &rec,
	}, nil
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
