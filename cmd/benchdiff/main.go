// Command benchdiff compares `go test -bench` output against a committed
// BENCH_*.json baseline — a benchstat-style report without the external
// dependency. It reads benchmark output on stdin, matches benchmark names
// against the baseline's "benchmarks" map (the after.ns_per_op numbers),
// and prints a delta table plus a geomean summary. Benchmarks matching the
// -hot pattern fail the run (exit 1) when they regress by more than
// -threshold; everything else is report-only. With -json the report is
// emitted as a machine-readable document instead of the table. -baseline
// names the anchor explicitly (what perf PRs should do — the Makefile
// pins one); without it the newest BENCH_*.json in the working directory
// is compared against.
//
// Usage:
//
//	go test -run='^$' -bench=. . | go run ./cmd/benchdiff -baseline BENCH_PR2.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type metrics struct {
	NsPerOp float64 `json:"ns_per_op"`
}

type entry struct {
	After *metrics `json:"after"`
}

type baseline struct {
	PR         string           `json:"pr"`
	Date       string           `json:"date"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// row is one benchmark's comparison, shared by the text and JSON renders.
// NowNs is the best (lowest) of the run's samples; Min/Max/Spread expose
// the sample range so a suspicious delta can be told apart from plain
// measurement noise (-count N yields N samples per benchmark).
type row struct {
	Name    string  `json:"name"`
	BaseNs  float64 `json:"base_ns_per_op,omitempty"`
	NowNs   float64 `json:"now_ns_per_op"`
	MinNs   float64 `json:"min_ns_per_op,omitempty"`
	MaxNs   float64 `json:"max_ns_per_op,omitempty"`
	Spread  float64 `json:"spread,omitempty"` // fractional: (max-min)/min over this run's samples
	Samples int     `json:"samples,omitempty"`
	Delta   float64 `json:"delta,omitempty"` // fractional: 0.05 = 5% slower
	Hot     bool    `json:"hot"`
	Verdict string  `json:"verdict"`
}

// report is the full comparison, JSON-ready.
type report struct {
	Baseline     string   `json:"baseline"`
	BaselineDate string   `json:"baseline_date"`
	Rows         []row    `json:"benchmarks"`
	Missing      []row    `json:"missing,omitempty"` // in baseline, not measured
	GeomeanDelta float64  `json:"geomean_delta"`     // fractional, over rows with a baseline
	Compared     int      `json:"compared"`          // rows entering the geomean
	MaxSpread    float64  `json:"max_spread"`        // worst per-benchmark sample spread this run
	MaxSpreadOf  string   `json:"max_spread_of,omitempty"`
	Regressions  []string `json:"regressions,omitempty"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkAccessHugePage-8   92881926   12.66 ns/op   0 B/op".
// The -N GOMAXPROCS suffix is stripped so names match the baseline keys.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	var (
		basePath  = flag.String("baseline", "", "baseline BENCH_*.json to compare against (default: the newest BENCH_*.json in the working directory)")
		threshold = flag.Float64("threshold", 0.10, "max tolerated hot-path ns/op regression (fraction)")
		hotPat    = flag.String("hot", `^Benchmark(Access|Fig1aBimodal|Replay|TraceDecode)`, "regexp of hot-path benchmarks gated by -threshold")
		outPath   = flag.String("out", "", "also write the report to this file (for CI artifacts)")
		asJSON    = flag.Bool("json", false, "emit the report as JSON on stdout instead of the table")
	)
	flag.Parse()
	if *basePath == "" {
		// No baseline named: fall back to the newest committed baseline.
		// Perf PRs should pass -baseline explicitly (the Makefile pins the
		// intended anchor) — the newest file is often the PR's own "after"
		// numbers, which only measures noise.
		p, err := newestBaseline(".")
		if errors.Is(err, errNoBaselines) {
			// A missing baseline is not a failure — a fresh clone or a new
			// machine simply has nothing to compare against yet. Say so
			// plainly and succeed, so `make bench-diff` and CI don't paint
			// a setup state as a perf regression.
			fmt.Printf("benchdiff: %v — nothing to compare against; skipping (record one with scripts or pass -baseline)\n", err)
			os.Exit(0)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: -baseline not set and %v\n", err)
			os.Exit(2)
		}
		*basePath = p
	}
	hot, err := regexp.Compile(*hotPat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: -hot: %v\n", err)
		os.Exit(2)
	}

	data, err := os.ReadFile(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *basePath, err)
		os.Exit(2)
	}

	current, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: reading bench output: %v\n", err)
		os.Exit(2)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results on stdin")
		os.Exit(2)
	}

	rep := diff(base, current, hot, *threshold)
	text := render(rep)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
	} else {
		fmt.Print(text)
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
	}
	if len(rep.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d hot-path regression(s) beyond %.0f%%: %s\n",
			len(rep.Regressions), *threshold*100, strings.Join(rep.Regressions, ", "))
		os.Exit(1)
	}
}

// errNoBaselines marks the benign can't-compare state: the directory
// holds no BENCH_*.json at all. main exits 0 on it with a clear message,
// unlike real errors (unreadable file, bad JSON), which stay exit 2.
var errNoBaselines = errors.New("no BENCH_*.json baseline")

// newestBaseline finds the BENCH_*.json in dir with the highest n —
// the convention names them BENCH_PR<n>.json. The Makefile overrides it
// with an explicit anchor anyway.
func newestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("%w found in %s", errNoBaselines, dir)
	}
	// BENCH_PR<n>.json: a shorter name has a smaller n, so order by
	// length first (BENCH_PR7 before BENCH_PR16), then lexically.
	sort.Slice(matches, func(i, j int) bool {
		if len(matches[i]) != len(matches[j]) {
			return len(matches[i]) < len(matches[j])
		}
		return matches[i] < matches[j]
	})
	return matches[len(matches)-1], nil
}

// parseBench collects every ns/op sample per benchmark name (a -count N
// run yields N lines per benchmark). The comparison uses the best sample;
// the full set feeds the per-benchmark min/max spread.
func parseBench(r io.Reader) (map[string][]float64, error) {
	out := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = append(out[m[1]], ns)
	}
	return out, sc.Err()
}

// sampleRange summarizes one benchmark's samples: best (min), worst
// (max), and the fractional spread between them.
func sampleRange(samples []float64) (min, max, spread float64) {
	min, max = samples[0], samples[0]
	for _, s := range samples[1:] {
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if min > 0 {
		spread = (max - min) / min
	}
	return min, max, spread
}

// diff builds the comparison: per-benchmark rows, the geomean of the
// now/base ratios over every benchmark with a baseline, and the hot
// benchmarks whose slowdown exceeded the threshold.
func diff(base baseline, current map[string][]float64, hot *regexp.Regexp, threshold float64) report {
	rep := report{Baseline: base.PR, BaselineDate: base.Date}

	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)

	var logSum float64
	for _, name := range names {
		min, max, spread := sampleRange(current[name])
		ns := min // compare by the least-noisy sample
		r := row{
			Name: name, NowNs: ns, Hot: hot.MatchString(name),
			MinNs: min, MaxNs: max, Spread: spread, Samples: len(current[name]),
		}
		if spread > rep.MaxSpread {
			rep.MaxSpread, rep.MaxSpreadOf = spread, name
		}
		b, ok := base.Benchmarks[name]
		if !ok || b.After == nil || b.After.NsPerOp <= 0 {
			r.Verdict = "no baseline"
			rep.Rows = append(rep.Rows, r)
			continue
		}
		r.BaseNs = b.After.NsPerOp
		r.Delta = (ns - b.After.NsPerOp) / b.After.NsPerOp
		logSum += math.Log(ns / b.After.NsPerOp)
		rep.Compared++
		r.Verdict = "ok"
		switch {
		case r.Hot && r.Delta > threshold:
			r.Verdict = "REGRESSION"
			rep.Regressions = append(rep.Regressions, name)
		case r.Delta > threshold:
			r.Verdict = "slower (not gated)"
		case r.Delta < -threshold:
			r.Verdict = "faster"
		}
		rep.Rows = append(rep.Rows, r)
	}
	if rep.Compared > 0 {
		rep.GeomeanDelta = math.Exp(logSum/float64(rep.Compared)) - 1
	}
	for name, b := range base.Benchmarks {
		if _, ok := current[name]; !ok && b.After != nil {
			rep.Missing = append(rep.Missing, row{Name: name, BaseNs: b.After.NsPerOp, Verdict: "not measured"})
		}
	}
	sort.Slice(rep.Missing, func(i, j int) bool { return rep.Missing[i].Name < rep.Missing[j].Name })
	return rep
}

// render formats the report as the human-readable table.
func render(rep report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "baseline: %s (%s)\n", rep.Baseline, rep.BaselineDate)
	fmt.Fprintf(&sb, "%-44s %14s %14s %8s %16s  %s\n", "benchmark", "base ns/op", "now ns/op", "delta", "min..max", "verdict")
	for _, r := range rep.Rows {
		if r.Verdict == "no baseline" {
			fmt.Fprintf(&sb, "%-44s %14s %14.1f %8s %16s  no baseline\n", r.Name, "-", r.NowNs, "-", spreadCell(r))
			continue
		}
		fmt.Fprintf(&sb, "%-44s %14.1f %14.1f %+7.1f%% %16s  %s\n",
			r.Name, r.BaseNs, r.NowNs, r.Delta*100, spreadCell(r), r.Verdict)
	}
	for _, r := range rep.Missing {
		fmt.Fprintf(&sb, "%-44s %14.1f %14s %8s %16s  not measured\n", r.Name, r.BaseNs, "-", "-", "-")
	}
	if rep.Compared > 0 {
		fmt.Fprintf(&sb, "geomean delta: %+.1f%% over %d benchmarks with a baseline\n",
			rep.GeomeanDelta*100, rep.Compared)
	}
	if rep.MaxSpreadOf != "" {
		fmt.Fprintf(&sb, "worst sample spread: ±%.0f%% (%s) — deltas inside the spread are noise\n",
			rep.MaxSpread*100, rep.MaxSpreadOf)
	}
	return sb.String()
}

// spreadCell formats a row's sample range for the table: the min..max
// ns/op span with the fractional spread, or just the single sample count
// hint when -count was 1 (min == max, spread undefined as a signal).
func spreadCell(r row) string {
	if r.Samples <= 1 {
		return "-"
	}
	return fmt.Sprintf("%.0f..%.0f ±%.0f%%", r.MinNs, r.MaxNs, r.Spread*100)
}
