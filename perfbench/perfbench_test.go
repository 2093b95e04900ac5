package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"addrxlat/internal/experiments"
)

// benchmarkJSON is the repository's BENCHMARK.json, one directory up.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricsMatchBenchmarkJSON pins the harness's metric and workload
// names, units and directions to BENCHMARK.json, and the names to the
// allowed alphabet.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var e2e []metricJSON
	for _, m := range b.EndToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		e2e = append(e2e, metricJSON{m.Name, m.Unit, m.Better})
	}
	for _, m := range b.PerLayer {
		checkName(m.Name)
	}
	for _, m := range append(append([]metricJSON(nil), e2e...), b.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q not allowed", m.Name, m.Unit)
		}
	}
	same := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i] != (metricJSON{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads: BENCHMARK.json %s, harness %s", got, want)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %q, want [perfbench]", b.Paths)
	}
}

// tinyScale is small enough for every table to take well under a second,
// and large enough that a serve cell retries.
var tinyScale = experiments.Scale{SpaceDiv: 1024, AccessDiv: 2000, Workers: 2}

// tracedHarness is a traced-mode harness as run builds one, writing its
// report to the test log only on failure.
func tracedHarness(t *testing.T, workload string, seed uint64) *harness {
	t.Helper()
	gold, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		o:       options{workload: workload, seed: seed, trace: true},
		w:       lookupWorkload(workload),
		out:     io.Discard,
		gold:    gold,
		rounds:  3,
		zg:      zDefault,
		layer:   map[string]float64{},
		rec:     newSpanRec(),
		clockNS: clockCost(),
	}
}

func requireClean(t *testing.T, h *harness) {
	t.Helper()
	if h.checks == 0 {
		t.Fatal("no checks ran")
	}
	if h.failures != 0 {
		t.Fatalf("%d of %d checks failed", h.failures, h.checks)
	}
}

func tables(t *testing.T, h *harness, s experiments.Scale) []*experiments.Table {
	t.Helper()
	r, err := runTableRound(h, h.w.calls, s)
	if err != nil {
		t.Fatal(err)
	}
	return r.tables
}

// TestReplayFig1 replays the three Figure 1 rows layer by layer at a tiny
// scale; every h-cell must reproduce the table's ios and tlb_misses.
func TestReplayFig1(t *testing.T) {
	h := tracedHarness(t, "fig1", 7)
	if _, err := replayFig1(h, tinyScale, tables(t, h, tinyScale)); err != nil {
		t.Fatal(err)
	}
	requireClean(t, h)
	if h.layer["mm.hugepage.ns_per_access"] <= 0 || h.layer["graph500.build_s"] <= 0 {
		t.Errorf("replay timed nothing: %v", h.layer)
	}
}

// TestReplayServe replays every sv1 and sv3 cell through serve.Sim at a
// tiny scale; every row must come out as the tables print it.
func TestReplayServe(t *testing.T) {
	h := tracedHarness(t, "serve", 7)
	if _, err := replayServe(h, tinyScale, tables(t, h, tinyScale)); err != nil {
		t.Fatal(err)
	}
	requireClean(t, h)
	if h.layer["serve.events"] <= 0 {
		t.Errorf("replay stepped no events: %v", h.layer)
	}
}

// tinyZ is a z machine small enough to trace in well under a second.
var tinyZ = zGeometry{ram: 1 << 10, virt: 1 << 12, hot: 64, tlb: 16, warmup: 20_000, chunk: 4096, roundChunks: 2 * zTraceBlock}

// TestReplayZ runs z-read's traced mode on a tiny machine: the replay
// through the Y cache, scheme and TLB must reproduce every traced round's
// mm.Costs.
func TestReplayZ(t *testing.T) {
	h := tracedHarness(t, "z-read", 7)
	h.zg = tinyZ
	if err := traceZ(h); err != nil {
		t.Fatal(err)
	}
	requireClean(t, h)
	if c := h.layer["ledger.coverage"]; c <= 0 {
		t.Errorf("ledger.coverage = %g", c)
	}
}

// TestCorruptGoldenFails runs one z-read repetition at the default seed
// against the built-in golden outputs and against a copy with one count
// changed: the first must pass every check, the second must report a
// failure, which the run's result carries into pass_ratio.
func TestCorruptGoldenFails(t *testing.T) {
	good, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	zr := bad.Z["z-read"]
	zr.Warmup.IOs++
	bad.Z["z-read"] = zr
	o := options{workload: "z-read", seed: defaultSeed, seconds: 1}
	for _, tc := range []struct {
		gold     *golden
		wantFail bool
	}{{good, false}, {bad, true}} {
		rep, err := runRep(o, tc.gold, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if tc.wantFail != (rep.Failures > 0) || rep.Checks == 0 {
			t.Errorf("corrupt=%v: %d of %d checks failed", tc.wantFail, rep.Failures, rep.Checks)
		}
		same := func(options, int, io.Writer) (repRun, error) { return repRun{repReport: rep, WallS: 1, CPUS: 1}, nil }
		res, err := run(o, tc.gold, io.Discard, same)
		if err != nil {
			t.Fatal(err)
		}
		pass := res.Metrics["pass_ratio"].Value
		if tc.wantFail != (pass < 1) || res.Correct == tc.wantFail {
			t.Errorf("corrupt=%v: correct=%v failed=%d of %d pass_ratio=%g", tc.wantFail, res.Correct, res.Failed, res.Attempted, pass)
		}
	}
}

// TestRunTakesMedians checks how a run combines its repetitions: every
// end-to-end metric is the median over repetitions, round_s of their
// mean rounds, and repetitions whose outputs differ fail a check.
func TestRunTakesMedians(t *testing.T) {
	o := options{workload: "fig1", seed: 3, seconds: 1}
	reps := []repRun{
		{repReport{SetupS: 2, RoundsS: []float64{1, 9}, RSSMiB: 40, Checks: 5, Digest: "a"}, 10, 20},
		{repReport{SetupS: 9, RoundsS: []float64{2, 3}, RSSMiB: 41, Checks: 5, Digest: "a"}, 30, 60},
		{repReport{SetupS: 3, RoundsS: []float64{4, 5}, RSSMiB: 39, Checks: 5, Digest: "a"}, 12, 22},
		{repReport{SetupS: 4, RoundsS: []float64{8, 7}, RSSMiB: 42, Checks: 5, Digest: "b"}, 11, 21},
	}
	spawn := func(_ options, i int, _ io.Writer) (repRun, error) { return reps[i], nil }
	res, err := run(o, nil, io.Discard, spawn)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"wall_s": 11.5, "cpu_s": 21.5, "peak_rss_mib": 40.5, "setup_s": 3.5, "round_s": 4.75, "pass_ratio": 22.0 / 23}
	for name, v := range want {
		if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	if res.Attempted != 23 || res.Failed != 1 || res.Correct {
		t.Errorf("attempted %d failed %d correct %v, want 23, 1, false", res.Attempted, res.Failed, res.Correct)
	}
}
