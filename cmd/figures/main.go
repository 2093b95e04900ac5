// Command figures regenerates every table and figure of the paper's
// evaluation (and the theorem-shape experiments). See DESIGN.md §3 for the
// experiment index.
//
// Usage:
//
//	figures                      # run everything at the scaled defaults
//	figures -fig f1a             # one experiment
//	figures -fig t1,f1a          # a comma-separated subset, in order
//	figures -full                # paper-scale dimensions (slow)
//	figures -format csv -out dir # write one CSV per experiment into dir
//	figures -cache dir           # result-cache location (default results/cache)
//	figures -no-cache            # resimulate every cell
//	figures -sample 1000000      # record cost-over-time curves every 1M accesses
//	figures -explain             # attribute costs: <experiment>.explain.tsv/.json
//	figures -http :8321          # serve live sweep counters at /debug/vars
//	figures -resume manifest.json # resume an interrupted run
//
// Finished simulation cells are cached under results/cache keyed by a
// hash of (workload, algorithm, machine geometry, window lengths, scale,
// seed); rerunning an experiment answers unchanged cells from the cache.
// See EXPERIMENTS.md for the key scheme and when to wipe the cache.
//
// Every run writes a JSON manifest (flag configuration, seeds, go
// version, git revision, per-experiment wall times and phase splits,
// cache hit counts) into the -manifest directory, prints per-experiment
// progress with ETA and cache hit rate on stderr, and — with -sample N —
// emits one <experiment>.curves.tsv cost-over-time file per experiment
// next to the figure outputs. See the Observability sections of README.md
// and EXPERIMENTS.md.
//
// Fault tolerance: SIGINT/SIGTERM drains the sweep at a chunk boundary,
// flushes the manifest with "status": "canceled" and "partial": true, and
// exits 130. Alongside the manifest a sweep journal records each finished
// cell and experiment; `figures -resume <manifest>` restores the recorded
// flags (explicit flags on the resume command line win), skips journaled
// experiments, answers journaled cells from the result cache, and
// reproduces byte-identical tables. ADDRXLAT_FAULTS arms fault injection
// for testing these paths (see internal/faultinject).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"addrxlat/internal/experiments"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/journal"
	"addrxlat/internal/mm"
	"addrxlat/internal/obs"
	"addrxlat/internal/prof"
	"addrxlat/internal/resultcache"
	"addrxlat/internal/serve"
	"addrxlat/internal/xtrace"
)

// profile is flushed on every exit path, including die().
var profile *prof.Flags

// exitMan/exitManDir let every exit path (die, cancellation, normal
// completion) flush the run manifest with an honest status.
var (
	exitMan    *obs.Manifest
	exitManDir string
)

// exitTrace is the armed execution tracer, flushed to exitTracePath on
// every exit path. The sweep span lives on sweepThread, closed by
// flushTrace so even an aborted run exports a well-formed trace (the row
// executors join their workers before returning, so the tracer is always
// quiescent by the time any exit path runs).
var (
	exitTrace     *xtrace.Tracer
	exitTracePath string
	sweepThread   *xtrace.Thread
	sweepStart    int64
)

// flushTrace closes the sweep span and writes the Chrome trace-event
// JSON. Idempotent; best effort like the other flushers.
func flushTrace() {
	t := exitTrace
	if t == nil {
		return
	}
	exitTrace = nil
	sweepThread.Span("figures", xtrace.CatSweep, sweepStart)
	if err := t.WriteFile(exitTracePath); err != nil {
		fmt.Fprintf(os.Stderr, "figures: trace: %v\n", err)
	} else {
		threads, events, _ := t.Stats()
		fmt.Fprintf(os.Stderr, "figures: wrote execution trace %s (%d timelines, %d events); load it at https://ui.perfetto.dev\n",
			exitTracePath, threads, events)
	}
}

func main() {
	var (
		fig      = flag.String("fig", "all", "experiment ids, comma-separated: f1a|f1b|f1c|t1|t2|t3|t4|e2|e3|e4|e5|h1|sv1|sv2|sv3|...|all")
		full     = flag.Bool("full", false, "run at the paper's full dimensions (slow)")
		seed     = flag.Uint64("seed", 1, "root random seed")
		format   = flag.String("format", "tsv", "output format: tsv|csv")
		outDir   = flag.String("out", "", "write one file per experiment into this directory (default stdout)")
		cacheDir = flag.String("cache", "results/cache", "content-addressed result cache directory (see EXPERIMENTS.md)")
		noCache  = flag.Bool("no-cache", false, "disable the result cache: simulate every cell")
		sample   = flag.Uint64("sample", 0, "record cost-over-time curves every N accesses per algorithm (0 disables); written as <experiment>.curves.tsv next to the outputs")
		explainF = flag.Bool("explain", false, "record per-algorithm cost attribution and structural gauges; written as <experiment>.explain.tsv/.json next to the outputs and summarized in the manifest")
		maniDir  = flag.String("manifest", "results", "write a run-manifest JSON and sweep journal into this directory (empty disables)")
		httpAddr = flag.String("http", "", "serve live sweep counters (expvar) on this address, e.g. :8321")
		progress = flag.Bool("progress", true, "print live per-experiment progress with ETA to stderr")
		resume   = flag.String("resume", "", "resume an interrupted run from its manifest: restores the recorded flags (explicit flags here win) and skips journaled experiments")
		workers  = flag.Int("workers", 0, "max concurrent simulations per streaming row / tasks per sweep (0 = GOMAXPROCS, 1 = one at a time); results are identical at any setting")
		traceF   = flag.String("trace", "", "export a Perfetto-loadable execution trace (Chrome trace-event JSON) of the sweep to this file; also derives <experiment>.timeline.tsv straggler reports next to the outputs. Results stay byte-identical")
		serveMet = flag.Bool("serve-metrics", false, "arm the virtual-time window collector on serve sweeps (sv1/sv2; sv3 always arms it): per-window counters/gauges/quantiles, SLO verdicts, and slowest-request exemplars, written as <table>.serve.metrics.tsv next to the outputs and recorded in the manifest. Tables stay byte-identical")
	)
	profile = prof.Register(nil)
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		die(2, "figures: %v\n", err)
	}

	// -resume restores the interrupted run's flag configuration so the
	// resumed sweep reproduces the same tables; flags given explicitly on
	// this command line keep their values.
	explicit := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	var prior *obs.Manifest
	if *resume != "" {
		var err error
		prior, err = obs.LoadManifest(*resume)
		if err != nil {
			die(1, "figures: -resume: %v\n", err)
		}
		if prior.Command != "figures" {
			die(2, "figures: -resume: manifest %s records a %q run, not figures\n", *resume, prior.Command)
		}
		for name, val := range prior.Config {
			if name == "resume" || explicit[name] {
				continue
			}
			if f := flag.Lookup(name); f != nil {
				if err := f.Value.Set(val); err != nil {
					die(2, "figures: -resume: restoring -%s=%q: %v\n", name, val, err)
				}
			}
		}
	}

	if err := profile.Start(); err != nil {
		die(1, "figures: %v\n", err)
	}
	defer func() {
		if !flushProfile() {
			os.Exit(1)
		}
	}()

	// SIGINT/SIGTERM cancel the sweep context; the row drivers drain at
	// the next chunk boundary and the run exits 130 below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale := experiments.DownScale()
	if *full {
		scale = experiments.PaperScale()
	}
	scale.Ctx = ctx
	scale.Workers = *workers
	// The stalled-worker watchdog arms from the environment, never a
	// default: ADDRXLAT_WATCHDOG=30s style (see DESIGN.md).
	scale.Watchdog = experiments.WatchdogFromEnv()
	scale.ServeMetrics = *serveMet
	var cache *resultcache.Cache
	if !*noCache && *cacheDir != "" {
		var err error
		cache, err = resultcache.Open(*cacheDir)
		if err != nil {
			die(1, "figures: %v\n", err)
		}
		scale.Cache = cache
		scale.Blobs = cache
	}

	type runner func(experiments.Scale) (*experiments.Table, error)
	all := []struct {
		id  string
		run runner
	}{
		{"f1a", func(s experiments.Scale) (*experiments.Table, error) {
			return experiments.Fig1(experiments.F1aBimodal, s, *seed)
		}},
		{"f1b", func(s experiments.Scale) (*experiments.Table, error) {
			return experiments.Fig1(experiments.F1bGraphWalk, s, *seed)
		}},
		{"f1c", func(s experiments.Scale) (*experiments.Table, error) {
			return experiments.Fig1(experiments.F1cGraph500, s, *seed)
		}},
		{"t1", func(experiments.Scale) (*experiments.Table, error) { return experiments.Theorem1(1<<18, 3) }},
		{"t2", func(experiments.Scale) (*experiments.Table, error) {
			return experiments.Theorem2(32, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14}, 20000, *seed)
		}},
		{"t3", func(experiments.Scale) (*experiments.Table, error) { return experiments.Theorem3(1<<18, 3) }},
		{"t4", func(s experiments.Scale) (*experiments.Table, error) { return experiments.Theorem4(s, *seed) }},
		{"e2", func(experiments.Scale) (*experiments.Table, error) { return experiments.Equation2(64) }},
		{"e2w", func(experiments.Scale) (*experiments.Table, error) { return experiments.CoverageVsW(1 << 32) }},
		{"e3", func(experiments.Scale) (*experiments.Table, error) { return experiments.Policies(1024, 500000, *seed) }},
		{"e4", func(s experiments.Scale) (*experiments.Table, error) { return experiments.Adaptive(s, *seed) }},
		{"e5", func(s experiments.Scale) (*experiments.Table, error) { return experiments.Nested(s, *seed) }},
		{"h1", func(s experiments.Scale) (*experiments.Table, error) { return experiments.Hybrid(s, *seed) }},
		{"whp", func(experiments.Scale) (*experiments.Table, error) {
			return experiments.FailureProbability([]uint{12, 14, 16, 18}, 20)
		}},
		{"e6", func(experiments.Scale) (*experiments.Table, error) {
			return experiments.Tenants(1536, 4096, 2_000_000, *seed)
		}},
		{"e7", func(s experiments.Scale) (*experiments.Table, error) { return experiments.Related(s, *seed) }},
		{"e8", func(s experiments.Scale) (*experiments.Table, error) { return experiments.TimeShare(s, *seed) }},
		{"e9", func(s experiments.Scale) (*experiments.Table, error) { return experiments.TLBGeometryStudy(s, *seed) }},
		{"e10", func(experiments.Scale) (*experiments.Table, error) {
			return experiments.MultiCoreStudy(1536, 1<<14, 2_000_000, *seed)
		}},
		{"x1", func(s experiments.Scale) (*experiments.Table, error) { return experiments.Crossover(s, *seed) }},
		{"sv1", func(s experiments.Scale) (*experiments.Table, error) { return experiments.ServeGoodput(s, *seed) }},
		{"sv2", func(s experiments.Scale) (*experiments.Table, error) { return experiments.ServeLatency(s, *seed) }},
		{"sv3", func(s experiments.Scale) (*experiments.Table, error) { return experiments.ServeSLO(s, *seed) }},
	}

	var selected []struct {
		id  string
		run runner
	}
	seen := make(map[string]bool)
	for _, id := range strings.Split(*fig, ",") {
		id = strings.TrimSpace(id)
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		if id == "all" {
			selected = all
			break
		}
		found := false
		for _, e := range all {
			if e.id == id {
				selected = append(selected, e)
				found = true
				break
			}
		}
		if !found {
			die(2, "figures: unknown experiment %q (want one of f1a f1b f1c t1 t2 t3 t4 e2 e3 e4 e5 h1 ... all)\n", id)
		}
	}
	if len(selected) == 0 {
		die(2, "figures: no experiments selected by -fig %q\n", *fig)
	}

	man := obs.NewManifest("figures", os.Args[1:])
	man.Config = obs.FlagConfig(nil)
	man.Seeds = []uint64{*seed}
	man.FaultPlan = faultinject.Plan()
	exitMan, exitManDir = man, *maniDir

	// The sweep journal witnesses finished cells and experiments; a
	// resumed run appends to the interrupted run's journal so completed
	// experiments stay skipped across any number of crashes.
	var (
		jw     *journal.Writer
		jstate *journal.State
	)
	if *maniDir != "" {
		jpath := filepath.Join(*maniDir, man.JournalFilename())
		if prior != nil && prior.Journal != "" {
			jpath = prior.Journal
			st, err := journal.Load(jpath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "figures: -resume: journal %s unreadable (%v); resuming from the cache alone\n", jpath, err)
			} else {
				jstate = st
				if st.Skipped > 0 {
					fmt.Fprintf(os.Stderr, "figures: -resume: journal %s: skipped %d torn line(s)\n", jpath, st.Skipped)
				}
			}
		}
		man.Journal = jpath
		var err error
		jw, err = journal.Create(jpath)
		if err != nil {
			die(1, "figures: %v\n", err)
		}
		defer jw.Close()
		if cache != nil {
			scale.Cache = journalingCache{inner: cache, jw: jw}
		}
		// An early manifest marks the run in flight; a SIGKILL leaves this
		// "running" manifest behind as the -resume handle.
		man.Status = "running"
		man.Partial = true
		if _, err := man.Write(*maniDir); err != nil {
			fmt.Fprintf(os.Stderr, "figures: manifest: %v\n", err)
		}
	}

	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress(os.Stderr, "figures", len(selected))
	}
	if *httpAddr != "" {
		addr, err := obs.StartHTTP(*httpAddr)
		if err != nil {
			die(1, "figures: %v\n", err)
		}
		// The bound address goes into the manifest: with -http :0 the
		// kernel picks the port, and the manifest is where tooling finds it.
		man.HTTPAddr = addr
		fmt.Fprintf(os.Stderr, "figures: serving live counters on http://%s/debug/vars\n", addr)
	}
	var tracer *xtrace.Tracer
	if *traceF != "" {
		tracer = xtrace.New()
		xtrace.Install(tracer)
		sweepThread = tracer.Thread("sweep")
		sweepStart = tracer.Now()
		exitTrace, exitTracePath = tracer, *traceF
		man.Trace = *traceF
	}
	// Curves land next to the figure outputs; with stdout output they go
	// to the manifest directory instead.
	curveDir := *outDir
	if curveDir == "" {
		curveDir = *maniDir
	}

	for _, e := range selected {
		if jstate != nil && jstate.Experiments[e.id] {
			fmt.Fprintf(os.Stderr, "figures: %s: complete in journal, skipped (resume)\n", e.id)
			man.Experiments = append(man.Experiments, obs.RunRecord{ID: e.id, Skipped: true})
			continue
		}
		runScale := scale
		rec := obs.NewRecorder(*sample)
		runScale.Observer = rec
		runScale.Explain = *explainF
		var hits0, misses0 uint64
		if cache != nil {
			hits0, misses0, _ = cache.Stats()
		}
		prog.Start(e.id)
		tracer.SetScope(e.id)
		expStart := tracer.Now()
		start := time.Now()
		tab, err := e.run(runScale)
		sweepThread.Span(e.id, xtrace.CatExperiment, expStart)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// Cooperative drain: the workers stopped at a chunk
				// boundary; flush what we have and exit like an
				// interrupted process should.
				if rec.HasSeries() && curveDir != "" {
					_ = writeCurves(rec, curveDir, e.id+".partial")
				}
				if rec.HasExplain() && curveDir != "" {
					_ = writeExplain(rec, curveDir, e.id+".partial")
				}
				flushProfile()
				flushTrace()
				flushManifest("canceled", fmt.Sprintf("%s: %v", e.id, err))
				fmt.Fprintf(os.Stderr, "figures: %s: %v\n", e.id, err)
				os.Exit(130)
			}
			die(1, "figures: %s: %v\n", e.id, err)
		}
		elapsed := time.Since(start)
		if err := emit(tab, *format, *outDir); err != nil {
			die(1, "figures: %s: %v\n", e.id, err)
		}
		if rec.HasSeries() && curveDir != "" {
			if err := writeCurves(rec, curveDir, tab.Name); err != nil {
				die(1, "figures: %s: %v\n", e.id, err)
			}
		}
		if rec.HasExplain() && curveDir != "" {
			if err := writeExplain(rec, curveDir, tab.Name); err != nil {
				die(1, "figures: %s: %v\n", e.id, err)
			}
		}
		if jw != nil {
			if err := jw.Experiment(e.id); err != nil {
				fmt.Fprintf(os.Stderr, "figures: journal: %v\n", err)
			}
		}
		rr := obs.RunRecord{
			ID: e.id, Table: tab.Name, Rows: len(tab.Rows),
			WallSeconds: elapsed.Seconds(), Phases: rec.Phases(),
		}
		if rec.HasExplain() {
			tot := rec.ExplainTotals()
			rr.Explain = &tot
		}
		// Serving sweeps put their full offered-load grid and governor
		// configuration into the manifest, so a serve table is auditable
		// from its manifest alone.
		rr.Serve = rec.ServeRecord(tab.Name)
		if rr.Serve != nil && rr.Serve.HasMetrics() && curveDir != "" {
			if err := writeServeMetrics(rr.Serve, curveDir, tab.Name); err != nil {
				die(1, "figures: %s: %v\n", e.id, err)
			}
		}
		if tracer != nil {
			// Slice this experiment's rows out of the whole-sweep trace:
			// straggler reports go to the manifest, the expvars, the
			// progress stream, and <table>.timeline.tsv.
			var reps []xtrace.RowReport
			for _, rep := range tracer.Analyze() {
				if rep.Experiment != e.id {
					continue
				}
				reps = append(reps, rep)
				rec.RowTimeline(rep)
				prog.Timeline(rep)
			}
			rr.Timeline = reps
			if len(reps) > 0 && curveDir != "" {
				if err := writeTimeline(reps, curveDir, tab.Name); err != nil {
					die(1, "figures: %s: %v\n", e.id, err)
				}
			}
		}
		var hits, misses uint64
		if cache != nil {
			hits, misses, _ = cache.Stats()
			rr.CacheHits, rr.CacheMisses = hits-hits0, misses-misses0
		}
		man.Experiments = append(man.Experiments, rr)
		prog.Finish(e.id, elapsed, hits, misses)
	}

	if cache != nil {
		hits, misses, corrupt := cache.Stats()
		man.Cache = &obs.CacheStats{Dir: cache.Dir(), Hits: hits, Misses: misses, Corrupt: corrupt}
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(os.Stderr, "figures: result cache: %d hits, %d misses (%.1f%% hit rate) under %s\n",
			hits, misses, rate, cache.Dir())
		if corrupt > 0 {
			fmt.Fprintf(os.Stderr, "figures: result cache: quarantined %d corrupt entr%s under %s\n",
				corrupt, plural(corrupt, "y", "ies"), filepath.Join(cache.Dir(), resultcache.QuarantineDir))
		}
	}
	flushTrace()
	flushManifest("ok", "")
}

// journalingCache witnesses every finished cell in the sweep journal as
// it enters the result cache, so a resumed run knows which cells the
// cache can answer without trusting anything else.
type journalingCache struct {
	inner experiments.CostCache
	jw    *journal.Writer
}

func (c journalingCache) Get(key string) (mm.Costs, bool) { return c.inner.Get(key) }

func (c journalingCache) Put(key string, v mm.Costs) {
	c.inner.Put(key, v)
	if err := c.jw.Cell(key); err != nil {
		fmt.Fprintf(os.Stderr, "figures: journal: %v\n", err)
	}
}

func plural(n uint64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// writeTimeline renders one experiment's straggler / chunk-latency
// reports into <dir>/<name>.timeline.tsv. Unlike the tables and curves
// these numbers are wall-clock measurements and not byte-stable.
func writeTimeline(reps []xtrace.RowReport, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".timeline.tsv"))
	if err != nil {
		return err
	}
	if err := xtrace.WriteTimelineTSV(f, reps); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeServeMetrics dumps a serve sweep's per-window telemetry stream
// into <dir>/<name>.serve.metrics.tsv (one row per (alg, load, window),
// SLO summaries and exemplars as comment lines).
func writeServeMetrics(sv *serve.SweepRecord, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".serve.metrics.tsv"))
	if err != nil {
		return err
	}
	if err := serve.WriteMetricsTSV(f, sv); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeCurves renders one experiment's cost-over-time series into
// <dir>/<name>.curves.tsv.
func writeCurves(rec *obs.Recorder, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".curves.tsv"))
	if err != nil {
		return err
	}
	if err := rec.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeExplain renders one experiment's cost-attribution snapshot into
// <dir>/<name>.explain.tsv and .explain.json.
func writeExplain(rec *obs.Recorder, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf, err := os.Create(filepath.Join(dir, name+".explain.tsv"))
	if err != nil {
		return err
	}
	if err := rec.WriteExplainTSV(tf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	jf, err := os.Create(filepath.Join(dir, name+".explain.json"))
	if err != nil {
		return err
	}
	if err := rec.WriteExplainJSON(jf); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// flushProfile stops the CPU profile and writes the heap profile, if
// either was requested. It reports whether flushing succeeded.
func flushProfile() bool {
	if profile == nil {
		return true
	}
	if err := profile.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		return false
	}
	return true
}

// flushManifest stamps the run's final status and (re)writes the
// manifest under its stable filename. Best effort — a manifest failure
// must not mask the run's own outcome.
func flushManifest(status, errMsg string) {
	if exitMan == nil || exitManDir == "" {
		return
	}
	exitMan.Status = status
	exitMan.Partial = status != "ok"
	exitMan.Error = errMsg
	exitMan.Finish()
	if path, err := exitMan.Write(exitManDir); err != nil {
		fmt.Fprintf(os.Stderr, "figures: manifest: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "figures: wrote run manifest %s\n", path)
	}
}

// die flushes profiles, the trace, and the manifest before exiting,
// since os.Exit skips defers.
func die(code int, format string, args ...interface{}) {
	flushProfile()
	flushTrace()
	flushManifest("failed", strings.TrimSpace(fmt.Sprintf(format, args...)))
	fmt.Fprintf(os.Stderr, format, args...)
	os.Exit(code)
}

func emit(tab *experiments.Table, format, outDir string) error {
	out := os.Stdout
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(outDir, tab.Name+"."+format))
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	switch strings.ToLower(format) {
	case "tsv":
		if err := tab.WriteTSV(out); err != nil {
			return err
		}
	case "csv":
		if err := tab.WriteCSV(out); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if outDir == "" {
		fmt.Fprintln(out)
	}
	return nil
}
