// Command perfbench is the repository benchmark: it drives three workloads
// through the public functions of the simulator's layers, prints six
// end-to-end metrics (or, with --trace 1, the per-layer ledger), checks the
// simulated outputs, and ends with one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig1 --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for what each workload and metric is for.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"addrxlat/internal/experiments"
)

// defaultSeed is the seed the golden digests were recorded at; it is also
// cmd/figures' default.
const defaultSeed = 1

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string // where the traced run writes its span file
	rep      bool   // run one repetition and report it to the parent
}

func parseFlags(args []string) (options, error) {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal run length; fixes the work of a run")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer mode")
	fs.StringVar(&o.outDir, "out-dir", ".bench_build", "directory for the traced run's span file")
	fs.BoolVar(&o.rep, "rep", false, "internal: run one repetition and print its report")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if lookupWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	gold, err := loadGolden(goldenJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var v any
	if o.rep {
		v, err = runRep(o, gold, os.Stdout)
	} else {
		v, err = run(o, gold, os.Stdout, execRep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions (pinned by TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"round_s", "s", "lower"},
	{"pass_ratio", "ratio", "higher"},
}

var perLayer = []metricDef{
	{"experiments.f1a_s", "s", "lower"},
	{"experiments.f1b_s", "s", "lower"},
	{"experiments.f1c_s", "s", "lower"},
	{"experiments.sv1_s", "s", "lower"},
	{"experiments.sv3_s", "s", "lower"},
	{"experiments.parallel_speedup", "x", "higher"},
	{"graph500.build_s", "s", "lower"},
	{"workload.fill_ns_per_access", "ns", "lower"},
	{"workload.fill_share", "ratio", "lower"},
	{"mm.hugepage.ns_per_access", "ns", "lower"},
	{"mm.decoupled.ns_per_access", "ns", "lower"},
	{"mm.io_per_access", "1/access", "lower"},
	{"mm.tlb_miss_per_access", "1/access", "lower"},
	{"mm.decode_miss_per_access", "1/access", "lower"},
	{"policy.lru.ns_per_access", "ns", "lower"},
	{"policy.lru.hit_ratio", "ratio", "higher"},
	{"tlb.probe.ns_per_access", "ns", "lower"},
	{"tlb.miss_ratio", "ratio", "lower"},
	{"core.lookup.ns_per_call", "ns", "lower"},
	{"core.lookup.calls", "count", "lower"},
	{"core.resolve.ns_per_call", "ns", "lower"},
	{"core.resolve.calls", "count", "lower"},
	{"core.failure_ratio", "ratio", "lower"},
	{"ledger.coverage", "ratio", "higher"},
	{"serve.calibrate_s", "s", "lower"},
	{"serve.step_ns", "ns", "lower"},
	{"serve.events", "count", "lower"},
	{"serve.goodput_ratio", "ratio", "higher"},
	{"metrics.step_ns", "ns", "lower"},
	{"metrics.overhead_ratio", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.clock_ns", "ns", "lower"},
}

// workloadDef is one named workload. A run of it is reps repetitions,
// one after the other, each in a fresh process: set-up, then a fixed
// number of rounds. setup and nominal are the set-up and round times on
// the reference host (2-vCPU Xeon, go1.24); they turn --seconds into the
// rounds per repetition, so every run of a workload does the same work
// and wall_s and cpu_s compare across commits. fig1 and serve rounds are
// table calls, with a replay for the traced run; z-read drives
// algorithm Z directly.
type workloadDef struct {
	name      string
	reps      int     // repetitions per run
	setup     float64 // set-up time on the reference host, s
	nominal   float64 // round time on the reference host, s
	minRounds int     // rounds per repetition at the least
	calls     []tableCall
	replay    func(h *harness, s experiments.Scale, tables []*experiments.Table) (work float64, err error)
}

func fig1Call(id string, w experiments.Fig1Workload) tableCall {
	return tableCall{id, "experiments.Fig1", func(s experiments.Scale, seed uint64) (*experiments.Table, error) {
		return experiments.Fig1(w, s, seed)
	}}
}

var workloads = []workloadDef{
	{name: "fig1", reps: 4, setup: 1.9, nominal: 1.7, minRounds: 2, replay: replayFig1, calls: []tableCall{
		fig1Call("f1a", experiments.F1aBimodal),
		fig1Call("f1b", experiments.F1bGraphWalk),
		fig1Call("f1c", experiments.F1cGraph500),
	}},
	{name: "serve", reps: 4, setup: 3.0, nominal: 2.8, minRounds: 2, replay: replayServe, calls: []tableCall{
		{"sv1", "experiments.ServeGoodput", experiments.ServeGoodput},
		{"sv3", "experiments.ServeSLO", experiments.ServeSLO},
	}},
	{name: "z-read", reps: 6, setup: 0.22, nominal: 0.44, minRounds: zGoldenRounds},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// roundsFor fixes the rounds of one repetition from the run's nominal
// length.
func roundsFor(w *workloadDef, seconds int) int {
	per := float64(seconds)/float64(w.reps) - w.setup
	return max(w.minRounds, int(math.Round(per/w.nominal)))
}

// harness is the state of one process's measurement: options, output,
// the output checks, and the timings the metrics come from.
type harness struct {
	o      options
	w      *workloadDef
	out    io.Writer
	gold   *golden
	rounds int
	zg     zGeometry // z-read only

	checks, failures int

	setups  []float64 // seconds per set-up
	roundsS []float64 // seconds per timed (untraced) round
	layer   map[string]float64
	led     *ledger
	rec     *spanRec // nil outside the traced rounds and replays
	clockNS float64  // cost of one clock read, subtracted from per-call timings
}

func newHarness(o options, gold *golden, out io.Writer) *harness {
	w := lookupWorkload(o.workload)
	return &harness{o: o, w: w, out: out, gold: gold, rounds: roundsFor(w, o.seconds), zg: zDefault, layer: map[string]float64{}}
}

// check counts one output check; a failure is reported on stdout.
func (h *harness) check(ok bool, format string, args ...any) bool {
	h.checks++
	if !ok {
		h.failures++
		fmt.Fprintf(h.out, "CHECK FAILED: %s\n", fmt.Sprintf(format, args...))
	}
	return ok
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.out, "perfbench: "+format+"\n", args...)
}

// repReport is what one repetition measured, as its process prints it.
// Its digest names every output it checked, so repetitions can be
// compared.
type repReport struct {
	SetupS   float64   `json:"setup_s"`
	RoundsS  []float64 `json:"rounds_s"`
	RSSMiB   float64   `json:"rss_mib"`
	Checks   int       `json:"checks"`
	Failures int       `json:"failures"`
	Digest   string    `json:"digest"`
}

// repRun is one repetition as its parent saw it: the report plus the
// process's wall time, from start to exit, and its CPU time.
type repRun struct {
	repReport
	WallS, CPUS float64
}

// spawnFunc runs repetition i of a run.
type spawnFunc func(o options, i int, out io.Writer) (repRun, error)

// run measures one workload: the traced mode in this process, otherwise
// w.reps repetitions in fresh processes, one at a time.
func run(o options, gold *golden, out io.Writer, spawn spawnFunc) (result, error) {
	h := newHarness(o, gold, out)
	if o.trace {
		h.logf("provenance %s", provenance(o, 1, h.rounds))
		return runTraced(h)
	}
	h.logf("provenance %s", provenance(o, h.w.reps, h.rounds))
	var reps []repRun
	for i := 0; i < h.w.reps; i++ {
		r, err := spawn(o, i, out)
		if err != nil {
			return result{}, fmt.Errorf("repetition %d: %w", i, err)
		}
		h.checks += r.Checks
		h.failures += r.Failures
		if i > 0 {
			h.check(r.Digest == reps[0].Digest, "repetition %d's outputs (%s) differ from repetition 0's (%s)", i, r.Digest, reps[0].Digest)
		}
		reps = append(reps, r)
	}
	return h.endToEnd(reps), nil
}

// runRep is one repetition: set-up, then h.rounds timed rounds, with
// every output checked.
func runRep(o options, gold *golden, out io.Writer) (repReport, error) {
	h := newHarness(o, gold, out)
	rep := repZ
	if h.w.calls != nil {
		rep = repTables
	}
	digest, err := rep(h)
	if err != nil {
		return repReport{}, err
	}
	return repReport{
		SetupS:   h.setups[0],
		RoundsS:  h.roundsS,
		RSSMiB:   peakRSS(),
		Checks:   h.checks,
		Failures: h.failures,
		Digest:   digest,
	}, nil
}

// execRep runs repetition i in a fresh process of this binary and relays
// its output lines, tagged with i.
func execRep(o options, i int, out io.Writer) (repRun, error) {
	self, err := os.Executable()
	if err != nil {
		return repRun{}, fmt.Errorf("locating the harness binary: %w", err)
	}
	cmd := exec.Command(self, "--workload", o.workload, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds), "--rep")
	cmd.Stderr = os.Stderr
	start := time.Now()
	outb, err := cmd.Output()
	wall := time.Since(start).Seconds()
	if err != nil {
		return repRun{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintf(out, "[rep %d] %s\n", i, l)
	}
	r := repRun{WallS: wall, CPUS: (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.repReport); err != nil {
		return repRun{}, fmt.Errorf("bad report: %w", err)
	}
	return r, nil
}

// endToEnd assembles the end-to-end metrics from the repetitions: each
// is the median over repetitions, round_s of each repetition's mean
// round. On a shared host one round's time is bimodal (a vCPU's speed
// switches between two levels every few seconds), so the median of
// single rounds jumps from one level to the other with the share of
// rounds at each, while a repetition's mean moves smoothly with it.
func (h *harness) endToEnd(reps []repRun) result {
	var wall, cpu, rss, setup, round, rounds []float64
	for _, r := range reps {
		wall = append(wall, r.WallS)
		cpu = append(cpu, r.CPUS)
		rss = append(rss, r.RSSMiB)
		setup = append(setup, r.SetupS)
		round = append(round, mean(r.RoundsS))
		rounds = append(rounds, r.RoundsS...)
	}
	vals := map[string]float64{
		"wall_s":       median(wall),
		"cpu_s":        median(cpu),
		"peak_rss_mib": median(rss),
		"setup_s":      median(setup),
		"round_s":      median(round),
		"pass_ratio":   1 - h.failRatio(),
	}
	res := h.tally()
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	n := len(reps)
	fmt.Fprintf(h.out, "%-13s %12.4f s (median of %d repetitions: %s)\n", "wall_s", vals["wall_s"], n, fmtList(wall))
	fmt.Fprintf(h.out, "%-13s %12.4f s (user+system, median of %d: %s)\n", "cpu_s", vals["cpu_s"], n, fmtList(cpu))
	fmt.Fprintf(h.out, "%-13s %12.2f MiB (median of %d: %s)\n", "peak_rss_mib", vals["peak_rss_mib"], n, fmtList(rss))
	fmt.Fprintf(h.out, "%-13s %12.4f s (median of %d: %s)\n", "setup_s", vals["setup_s"], n, fmtList(setup))
	fmt.Fprintf(h.out, "%-13s %12.4f s (mean round, median of %d: %s; single rounds: %s)\n", "round_s", vals["round_s"], n, fmtList(round), describe(rounds, "rounds"))
	h.printFailRatio()
	return res
}

// tally starts the result line from the check counts.
func (h *harness) tally() result {
	return result{
		Correct:   h.failures == 0,
		Attempted: h.checks,
		Failed:    h.failures,
		Metrics:   map[string]metric{},
	}
}

func (h *harness) failRatio() float64 {
	if h.checks == 0 {
		return 0
	}
	return float64(h.failures) / float64(h.checks)
}

func (h *harness) printFailRatio() {
	fmt.Fprintf(h.out, "%-13s %12.6f ratio (%d of %d checks failed)\n", "fail_ratio", h.failRatio(), h.failures, h.checks)
}

// runTraced is the traced mode: one set-up and its rounds in this
// process, then the traced rounds and replays; the result carries the
// per-layer ledger.
func runTraced(h *harness) (result, error) {
	h.clockNS = clockCost()
	h.layer["trace.clock_ns"] = h.clockNS
	h.rec = newSpanRec()
	trace := traceZ
	if h.w.calls != nil {
		trace = traceTables
	}
	if err := trace(h); err != nil {
		return result{}, err
	}
	h.writeSpans()
	res := h.tally()
	for _, d := range perLayer {
		v := h.layer[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	h.printLayerSummary()
	h.printFailRatio()
	return res, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ", ")
}

// peakRSS is this process's peak resident set in MiB: its address
// space's high-water mark, VmHWM. getrusage's maxrss would also count
// the image the process replaced at exec.
func peakRSS() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		var kib float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kib); n == 1 {
			return kib / 1024
		}
	}
	return 0
}

// provenance describes the host, toolchain and code a run measured.
func provenance(o options, reps, rounds int) string {
	return fmt.Sprintf("workload=%s seed=%d repetitions=%d rounds=%d trace=%v nproc=%d GOMAXPROCS=%d cpu=%q go=%s rev=%s src=%s",
		o.workload, o.seed, reps, rounds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(),
		runtime.Version(), gitRevision(), sourceDigest())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is HEAD of the git checkout in the working directory, read
// from .git without running git, or "none".
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		rev = ""
		if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
			rev = strings.TrimSpace(string(b))
		} else if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
					rev = f[0]
				}
			}
		}
	}
	if _, err := hex.DecodeString(rev); err != nil || len(rev) < 12 {
		return "none"
	}
	return rev[:12]
}

// sourceDigest hashes the Go sources under the working directory, so a
// run names the code it measured even where no git metadata exists.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply left out of the digest
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "results" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	sum := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s %d\n", p, len(b))
		sum.Write(b)
	}
	return "sha256:" + hex.EncodeToString(sum.Sum(nil))[:16]
}

// writeSpans exports the traced run's spans and validates the file with
// the same checker cmd/tracelint uses.
func (h *harness) writeSpans() {
	dir := filepath.Join(h.o.outDir, "perfbench-trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		h.check(false, "creating %s: %v", dir, err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", h.o.workload, h.o.seed))
	if err := h.rec.tr.WriteFile(path); err != nil {
		h.check(false, "writing spans: %v", err)
		return
	}
	spans, err := validateSpanFile(path)
	if h.check(err == nil, "span file %s does not validate: %v", path, err) {
		h.logf("spans: %d written to %s", spans, path)
	}
}

var errNoSpans = errors.New("no spans recorded")
