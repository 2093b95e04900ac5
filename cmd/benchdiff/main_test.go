package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchOutput is a realistic -count 3 `go test -bench` stream: three
// samples per benchmark, interleaved with the noise lines go test prints.
const benchOutput = `goos: linux
goarch: amd64
pkg: addrxlat/internal/mm
BenchmarkAccessHugePage-8   	92881926	        12.66 ns/op	       0 B/op
BenchmarkAccessHugePage-8   	90011223	        13.10 ns/op	       0 B/op
BenchmarkAccessHugePage-8   	91500000	        12.90 ns/op	       0 B/op
BenchmarkReplayDecode-8     	  500000	      2100 ns/op
BenchmarkReplayDecode-8     	  490000	      2400 ns/op
BenchmarkReplayDecode-8     	  510000	      2000 ns/op
BenchmarkColdExtra-8        	 1000000	      1000 ns/op
PASS
ok  	addrxlat/internal/mm	4.2s
`

func TestParseBenchCollectsAllSamples(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got["BenchmarkAccessHugePage"]); n != 3 {
		t.Fatalf("AccessHugePage samples = %d, want 3", n)
	}
	if n := len(got["BenchmarkColdExtra"]); n != 1 {
		t.Fatalf("ColdExtra samples = %d, want 1", n)
	}
	min, max, spread := sampleRange(got["BenchmarkReplayDecode"])
	if min != 2000 || max != 2400 {
		t.Fatalf("ReplayDecode range = %g..%g, want 2000..2400", min, max)
	}
	if want := (2400.0 - 2000.0) / 2000.0; math.Abs(spread-want) > 1e-12 {
		t.Fatalf("ReplayDecode spread = %g, want %g", spread, want)
	}
}

func TestDiffSpreadAndGeomean(t *testing.T) {
	base := baseline{
		PR:   "BENCH_TEST",
		Date: "2026-01-01",
		Benchmarks: map[string]entry{
			"BenchmarkAccessHugePage": {After: &metrics{NsPerOp: 12.0}},
			"BenchmarkReplayDecode":   {After: &metrics{NsPerOp: 2000}},
			"BenchmarkGoneMissing":    {After: &metrics{NsPerOp: 50}},
		},
	}
	current, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	hot := regexp.MustCompile(`^BenchmarkAccess`)
	rep := diff(base, current, hot, 0.10)

	if rep.Compared != 2 {
		t.Fatalf("Compared = %d, want 2", rep.Compared)
	}
	byName := map[string]row{}
	for _, r := range rep.Rows {
		byName[r.Name] = r
	}

	// Comparison uses the best (minimum) sample.
	access := byName["BenchmarkAccessHugePage"]
	if access.NowNs != 12.66 || access.MinNs != 12.66 || access.MaxNs != 13.10 {
		t.Fatalf("AccessHugePage now/min/max = %g/%g/%g", access.NowNs, access.MinNs, access.MaxNs)
	}
	if access.Samples != 3 {
		t.Fatalf("AccessHugePage samples = %d, want 3", access.Samples)
	}
	// 12.66 vs 12.0 baseline = +5.5% < 10% threshold: ok despite hot.
	if access.Verdict != "ok" || !access.Hot {
		t.Fatalf("AccessHugePage verdict=%q hot=%v", access.Verdict, access.Hot)
	}

	decode := byName["BenchmarkReplayDecode"]
	if want := 0.20; math.Abs(decode.Spread-want) > 1e-12 {
		t.Fatalf("ReplayDecode spread = %g, want %g", decode.Spread, want)
	}
	// 2000 vs 2000: delta 0, not a regression even though spread is 20%.
	if decode.Verdict != "ok" {
		t.Fatalf("ReplayDecode verdict = %q", decode.Verdict)
	}

	if rep.MaxSpreadOf != "BenchmarkReplayDecode" || math.Abs(rep.MaxSpread-0.20) > 1e-12 {
		t.Fatalf("MaxSpread = %g of %q", rep.MaxSpread, rep.MaxSpreadOf)
	}
	if len(rep.Missing) != 1 || rep.Missing[0].Name != "BenchmarkGoneMissing" {
		t.Fatalf("Missing = %+v", rep.Missing)
	}
	cold := byName["BenchmarkColdExtra"]
	if cold.Verdict != "no baseline" || cold.Spread != 0 {
		t.Fatalf("ColdExtra verdict=%q spread=%g", cold.Verdict, cold.Spread)
	}
}

func TestDiffFlagsHotRegression(t *testing.T) {
	base := baseline{
		Benchmarks: map[string]entry{
			"BenchmarkAccessHugePage": {After: &metrics{NsPerOp: 10.0}},
		},
	}
	current := map[string][]float64{"BenchmarkAccessHugePage": {12.0, 12.5}}
	hot := regexp.MustCompile(`^BenchmarkAccess`)
	rep := diff(base, current, hot, 0.10)
	if len(rep.Regressions) != 1 || rep.Regressions[0] != "BenchmarkAccessHugePage" {
		t.Fatalf("Regressions = %v", rep.Regressions)
	}
	if rep.Rows[0].Verdict != "REGRESSION" {
		t.Fatalf("verdict = %q", rep.Rows[0].Verdict)
	}
}

func TestRenderShowsSpread(t *testing.T) {
	base := baseline{
		PR:   "BENCH_TEST",
		Date: "2026-01-01",
		Benchmarks: map[string]entry{
			"BenchmarkReplayDecode": {After: &metrics{NsPerOp: 2000}},
		},
	}
	current := map[string][]float64{
		"BenchmarkReplayDecode": {2100, 2400, 2000},
		"BenchmarkColdExtra":    {1000},
	}
	rep := diff(base, current, regexp.MustCompile(`^$a`), 0.10)
	text := render(rep)
	if !strings.Contains(text, "min..max") {
		t.Fatalf("render missing spread column header:\n%s", text)
	}
	if !strings.Contains(text, "2000..2400 ±20%") {
		t.Fatalf("render missing ReplayDecode spread cell:\n%s", text)
	}
	if !strings.Contains(text, "worst sample spread: ±20% (BenchmarkReplayDecode)") {
		t.Fatalf("render missing max-spread summary:\n%s", text)
	}
	// Single-sample rows show no spread (nothing to spread over).
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "BenchmarkColdExtra") && !strings.Contains(line, "-") {
			t.Fatalf("ColdExtra row should render '-' for spread: %q", line)
		}
	}
}

// TestNewestBaselineMissing pins the benign no-baseline state: an empty
// directory yields errNoBaselines (so main exits 0 with a message rather
// than painting a fresh clone as a perf failure), and the error names
// the directory it searched.
func TestNewestBaselineMissing(t *testing.T) {
	dir := t.TempDir()
	_, err := newestBaseline(dir)
	if !errors.Is(err, errNoBaselines) {
		t.Fatalf("newestBaseline(%s) err = %v, want errNoBaselines", dir, err)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name the searched directory %s", err, dir)
	}
}

// TestNewestBaselinePicksLast checks the selection rule: with several
// BENCH_*.json present, the lexicographically last one wins.
func TestNewestBaselinePicksLast(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR1.json", "BENCH_PR3.json", "BENCH_PR2.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_PR3.json" {
		t.Fatalf("newestBaseline picked %s, want BENCH_PR3.json", got)
	}
}

// TestNewestBaselineOrdersNumerically: BENCH_PR16 is newer than
// BENCH_PR7 even though it sorts first as a string.
func TestNewestBaselineOrdersNumerically(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_PR7.json", "BENCH_PR16.json", "BENCH_PR2.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := newestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_PR16.json" {
		t.Fatalf("newestBaseline picked %s, want BENCH_PR16.json", got)
	}
}
