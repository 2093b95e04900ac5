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
// version, host CPUs, git revision, per-experiment wall and CPU times,
// peak RSS and phase splits, cache hit counts) into the -manifest
// directory, prints per-experiment progress with ETA and cache hit rate
// on stderr, and — with -sample N — emits one <experiment>.curves.tsv
// cost-over-time file per experiment next to the figure outputs. See the
// Observability sections of README.md and EXPERIMENTS.md.
//
// A run's lifecycle is obs.Run's: an invocation rejected for its flags,
// its fault plan or its -resume manifest exits (2, or 1 for a manifest
// that cannot be read) before anything is written; once the run starts,
// run.Exit is its one exit path, and a side file or trace that cannot be
// written fails it (exit 1, "status": "failed").
//
// Fault tolerance: SIGINT/SIGTERM drains the sweep at a chunk boundary,
// flushes the manifest with "status": "canceled" and "partial": true, and
// exits 130. The manifest is also the run's one progress record: it is
// rewritten atomically after each experiment's last output file, so a
// killed run leaves a manifest listing exactly the experiments it
// finished. `figures -resume <manifest>` restores the recorded flags
// (explicit flags on the resume command line win), skips every
// experiment the manifest lists and carries their records forward,
// answers the interrupted experiment's finished cells from the result
// cache, and reproduces byte-identical tables. ADDRXLAT_FAULTS arms fault
// injection for testing these paths (see internal/faultinject).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"addrxlat/internal/experiments"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/obs"
	"addrxlat/internal/prof"
	"addrxlat/internal/resultcache"
)

// options are figures' command-line flags.
type options struct {
	fig, format, out, cache, manifest, http, resume, trace string
	full, noCache, explain, progress                       bool
	seed, sample                                           uint64
	workers                                                int
	profile                                                *prof.Flags
}

// define registers figures' flags on fs.
func (o *options) define(fs *flag.FlagSet) {
	fs.StringVar(&o.fig, "fig", "all", "experiment ids, comma-separated: "+strings.Join(experimentIDs(), "|")+"|all")
	fs.BoolVar(&o.full, "full", false, "run at the paper's full dimensions (slow)")
	fs.Uint64Var(&o.seed, "seed", 1, "root random seed")
	fs.StringVar(&o.format, "format", "tsv", "output format: tsv|csv")
	fs.StringVar(&o.out, "out", "", "write one file per experiment into this directory (default stdout)")
	fs.StringVar(&o.cache, "cache", "results/cache", "content-addressed result cache directory (see EXPERIMENTS.md)")
	fs.BoolVar(&o.noCache, "no-cache", false, "disable the result cache: simulate every cell")
	fs.Uint64Var(&o.sample, "sample", 0, "record cost-over-time curves every N accesses per algorithm (0 disables); written as <experiment>.curves.tsv next to the outputs")
	fs.BoolVar(&o.explain, "explain", false, "record per-algorithm cost attribution and structural gauges; written as <experiment>.explain.tsv/.json next to the outputs and summarized in the manifest")
	fs.StringVar(&o.manifest, "manifest", "results", "write the run manifest JSON into this directory, rewritten after each finished experiment; it is the -resume handle (empty disables)")
	fs.StringVar(&o.http, "http", "", "serve live sweep counters (expvar) on this address, e.g. :8321")
	fs.BoolVar(&o.progress, "progress", true, "print live per-experiment progress with ETA to stderr")
	fs.StringVar(&o.resume, "resume", "", "resume an interrupted run from its manifest: restores the recorded flags (explicit flags here win) and skips every experiment the manifest lists")
	fs.IntVar(&o.workers, "workers", 0, "max concurrent simulations per streaming row / tasks per sweep (0 = GOMAXPROCS, 1 = one at a time); results are identical at any setting")
	fs.StringVar(&o.trace, "trace", "", "export a Perfetto-loadable execution trace (Chrome trace-event JSON) of the sweep to this file; also derives <experiment>.timeline.tsv straggler reports next to the outputs. Results stay byte-identical")
	o.profile = prof.Register(fs)
}

// resumeFrom restores a prior run's manifest onto fs for -resume: every
// flag the manifest's config records is set, except -resume itself, the
// flags in explicit (given on this command line) and flags fs no longer
// defines (retired ones). It returns the prior run's experiment records
// by id — every experiment it finished or itself carried forward — which
// the resumed run skips.
func resumeFrom(prior *obs.Manifest, fs *flag.FlagSet, explicit map[string]bool) (map[string]obs.RunRecord, error) {
	if prior.Command != "figures" {
		return nil, fmt.Errorf("manifest records a %q run, not figures", prior.Command)
	}
	for name, val := range prior.Config {
		if name == "resume" || explicit[name] {
			continue
		}
		if f := fs.Lookup(name); f != nil {
			if err := f.Value.Set(val); err != nil {
				return nil, fmt.Errorf("restoring -%s=%q: %v", name, val, err)
			}
		}
	}
	done := make(map[string]obs.RunRecord, len(prior.Experiments))
	for _, r := range prior.Experiments {
		done[r.ID] = r
	}
	return done, nil
}

func main() {
	var o options
	o.define(flag.CommandLine)
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		reject(2, "figures: %v\n", err)
	}

	// -resume restores the interrupted run's flag configuration so the
	// resumed sweep reproduces the same tables; flags given explicitly on
	// this command line keep their values.
	var done map[string]obs.RunRecord
	if o.resume != "" {
		explicit := make(map[string]bool)
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		prior, err := obs.LoadManifest(o.resume)
		if err != nil {
			reject(1, "figures: -resume: %v\n", err)
		}
		if done, err = resumeFrom(prior, flag.CommandLine, explicit); err != nil {
			reject(2, "figures: -resume: %s: %v\n", o.resume, err)
		}
	}

	// Every check of the invocation (the fault plan and -resume above,
	// -fig and -format here) comes before anything is written: a
	// rejected run leaves no profile, result cache, manifest or output
	// file behind.
	registry := experiments.Registry()
	var selected []experiments.Experiment
	seen := make(map[string]bool)
	for _, id := range strings.Split(o.fig, ",") {
		id = strings.TrimSpace(id)
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		if id == "all" {
			selected = registry
			break
		}
		i := slices.IndexFunc(registry, func(e experiments.Experiment) bool { return e.ID == id })
		if i < 0 {
			reject(2, "figures: unknown experiment %q (want one of %s all)\n", id, strings.Join(experimentIDs(), " "))
		}
		selected = append(selected, registry[i])
	}
	if len(selected) == 0 {
		reject(2, "figures: no experiments selected by -fig %q\n", o.fig)
	}
	if f := strings.ToLower(o.format); f != "tsv" && f != "csv" {
		reject(2, "figures: unknown -format %q (want tsv or csv)\n", o.format)
	}

	// A resumed run carries the finished experiments' records forward, so
	// its manifest lists all finished work however many crashes came
	// before, and runs the rest.
	var carried []obs.RunRecord
	var todo []experiments.Experiment
	for _, e := range selected {
		r, ok := done[e.ID]
		if !ok {
			todo = append(todo, e)
			continue
		}
		r.Skipped = true
		carried = append(carried, r)
		fmt.Fprintf(os.Stderr, "figures: %s: complete in manifest, skipped (resume)\n", e.ID)
	}
	// Side files land next to the figure outputs; with stdout output they
	// go to the manifest directory instead.
	files := o.out
	if files == "" {
		files = o.manifest
	}
	run := obs.StartRun(obs.RunConfig{Command: "figures", Seed: o.seed, Profile: o.profile,
		Manifest: o.manifest, Files: files, Trace: o.trace, Carry: carried})

	scale := experiments.DownScale()
	if o.full {
		scale = experiments.PaperScale()
	}
	scale.Ctx = run.Ctx
	scale.Workers = o.workers
	// The stalled-worker watchdog arms from the environment, never a
	// default: ADDRXLAT_WATCHDOG=30s style (see DESIGN.md).
	scale.Watchdog = experiments.WatchdogFromEnv()
	var cache *resultcache.Cache
	if !o.noCache && o.cache != "" {
		var err error
		if cache, err = resultcache.Open(o.cache); err != nil {
			run.Exit(err)
		}
		scale.Cache = cache
	}

	var prog *obs.Progress
	if o.progress {
		prog = obs.NewProgress(os.Stderr, "figures", len(todo))
	}
	if o.http != "" {
		addr, err := obs.StartHTTP(o.http)
		if err != nil {
			run.Exit(err)
		}
		// The bound address goes into the manifest: with -http :0 the
		// kernel picks the port, and the manifest is where tooling finds it.
		run.Manifest.HTTPAddr = addr
		fmt.Fprintf(os.Stderr, "figures: serving live counters on http://%s/debug/vars\n", addr)
	}

	for _, e := range todo {
		x := run.Begin(e.ID, o.sample)
		s := scale
		s.Observer, s.Explain = x.Rec, o.explain
		var hits0, misses0 uint64
		if cache != nil {
			hits0, misses0, _ = cache.Stats()
		}
		prog.Start(e.ID)
		tab, err := e.Run(s, o.seed)
		if err == nil {
			err = emit(tab, o.format, o.out)
		}
		if err != nil {
			run.Exit(fmt.Errorf("%s: %w", e.ID, err))
		}
		rr := obs.RunRecord{ID: e.ID, Table: tab.Name, Rows: len(tab.Rows)}
		var hits, misses uint64
		if cache != nil {
			hits, misses, _ = cache.Stats()
			rr.CacheHits, rr.CacheMisses = hits-hits0, misses-misses0
		}
		if rr, err = x.End(rr, tab.Name); err != nil {
			run.Exit(fmt.Errorf("%s: %w", e.ID, err))
		}
		for _, rep := range rr.Timeline {
			prog.Timeline(rep)
		}
		prog.Finish(e.ID, time.Duration(rr.WallSeconds*float64(time.Second)), hits, misses)
	}

	if cache != nil {
		hits, misses, corrupt := cache.Stats()
		run.Manifest.Cache = &obs.CacheStats{Dir: cache.Dir(), Hits: hits, Misses: misses, Corrupt: corrupt}
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
	run.Exit(nil)
}

// experimentIDs lists the registry's ids in run order.
func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

func plural(n uint64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// reject reports a rejected invocation — a bad flag, -resume manifest
// or fault plan — and exits with code. It runs before the run has
// started anything, so there is nothing to flush.
func reject(code int, format string, args ...any) {
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
	write := tab.WriteTSV // main accepts only tsv and csv
	if strings.EqualFold(format, "csv") {
		write = tab.WriteCSV
	}
	if err := write(out); err != nil {
		return err
	}
	if outDir == "" {
		fmt.Fprintln(out)
	}
	return nil
}
