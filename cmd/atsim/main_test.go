package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/mm"
	"addrxlat/internal/obs"
	"addrxlat/internal/policy"
	"addrxlat/internal/trace"
	"addrxlat/internal/workload"
)

// A small machine: 2^14 virtual pages, 2^12 RAM pages, 64 TLB entries.
const (
	testVPages   = 1 << 14
	testRAMPages = 1 << 12
	testAccesses = 20000
)

// runBimodal builds algorithm name with the given TLB policy, serves
// testAccesses bimodal requests through AccessBatch, and checks that every
// request was counted.
func runBimodal(t *testing.T, name string, tlbPol policy.Kind) {
	t.Helper()
	alg, err := buildAlgorithm(name, core.IcebergAlloc, 16, 2, testVPages, testRAMPages,
		64, 64, tlbPol, policy.LRUKind, 1)
	if err != nil {
		t.Fatalf("%s (tlb %s): %v", name, tlbPol, err)
	}
	gen, err := buildGenerator("bimodal", testVPages, 1<<10, 0.99, 1.1, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	alg.AccessBatch(workload.Take(gen, testAccesses))
	if got := alg.Costs().Accesses; got != testAccesses {
		t.Fatalf("%s (tlb %s): %d accesses counted, want %d", alg.Name(), tlbPol, got, testAccesses)
	}
}

func TestBuildAlgorithmEveryName(t *testing.T) {
	for _, name := range strings.Split(algorithmNames, "|") {
		t.Run(name, func(t *testing.T) { runBimodal(t, name, policy.LRUKind) })
	}
}

// TestBuildAlgorithmEveryTLBPolicy runs the algorithms whose -tlb-policy
// reaches the TLB with every policy kind: all but LRU take the TLB's
// generic-policy path.
func TestBuildAlgorithmEveryTLBPolicy(t *testing.T) {
	for _, name := range []string{"decoupled", "hugepage"} {
		for _, kind := range policy.Kinds() {
			t.Run(name+"/"+string(kind), func(t *testing.T) { runBimodal(t, name, kind) })
		}
	}
}

func TestUnknownNamesError(t *testing.T) {
	if _, err := buildAlgorithm("bogus", core.IcebergAlloc, 1, 2, testVPages, testRAMPages,
		64, 64, policy.LRUKind, policy.LRUKind, 1); err == nil {
		t.Error("unknown algorithm built")
	}
	if _, err := buildWorkload("bogus", testVPages, 10, 10, 1<<10, 0.99, 1.1, 0.01, 10, 1); err == nil {
		t.Error("unknown workload built")
	}
	for _, kind := range []string{"bogus", "graph500"} {
		if _, err := buildGenerator(kind, testVPages, 1<<10, 0.99, 1.1, 0.01, 1); err == nil {
			t.Errorf("buildGenerator(%q) built a streaming generator", kind)
		}
	}
}

func TestBuildGeneratorEveryStreamingKind(t *testing.T) {
	for _, kind := range strings.Split(generatorNames, "|") {
		gen, err := buildGenerator(kind, testVPages, 1<<10, 0.99, 1.1, 0.01, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, v := range workload.Take(gen, 1000) {
			if v >= testVPages {
				t.Fatalf("%s: page %d outside [0, %d)", kind, v, testVPages)
			}
		}
	}
}

// TestBuildGeneratorRejectsNaN: flag.Float64 parses "NaN", so each
// generator's shape flag must be rejected at construction; a NaN -zipf-s
// would otherwise hang the run in Zipf's rejection loop.
func TestBuildGeneratorRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		flag, kind            string
		hotProb, zipfS, alpha float64
	}{
		{"-hot-prob", "bimodal", nan, 1.1, 0.01},
		{"-alpha", "graphwalk", 0.99, 1.1, nan},
		{"-zipf-s", "zipf", 0.99, nan, 0.01},
	} {
		if _, err := buildGenerator(c.kind, testVPages, 1<<10, c.hotProb, c.zipfS, c.alpha, 1); err == nil {
			t.Errorf("%s: %s NaN accepted", c.kind, c.flag)
		}
	}
}

// TestServeModeRejectsBadLoad: -serve-load must be finite and positive.
// flag.Float64 parses "NaN" and "Inf", and NaN passes a <= 0 check.
// Validation comes first, so no case reaches the simulator.
func TestServeModeRejectsBadLoad(t *testing.T) {
	for _, load := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		alg, err := buildAlgorithm("hugepage", core.IcebergAlloc, 1, 2, testVPages, testRAMPages,
			64, 64, policy.LRUKind, policy.LRUKind, 1)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := buildGenerator("bimodal", testVPages, 1<<10, 0.99, 1.1, 0.01, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, err = runServeMode(alg, gen, serveModeConfig{
			workload: "bimodal", seed: 1, load: load, requests: 50, warmup: 10,
			blockPages: 4, deadlineMul: 80, arrivals: "poisson", queueCap: 16, attempts: 3,
		}, nil)
		if err == nil || !strings.Contains(err.Error(), "-serve-load") {
			t.Errorf("-serve-load %g: err = %v, want a -serve-load rejection", load, err)
		}
		if alg.Costs().Accesses != 0 {
			t.Errorf("-serve-load %g: the simulator serviced %d accesses", load, alg.Costs().Accesses)
		}
	}
}

// TestModelFlagBounds: -eps must lie in (0, 1), the model's range, and
// -w must be non-negative, 0 meaning the default 64 bits. flag.Float64
// parses "NaN" and "Inf", and NaN passes any ≤ or ≥ test. Every
// rejection names its flag; a -w that gets through must reach the
// decoupled scheme as given, not as 64.
func TestModelFlagBounds(t *testing.T) {
	for _, c := range []struct {
		eps   float64
		wBits int
		flag  string // "" when the pair is accepted
	}{
		{0.01, 64, ""},
		{0.5, 0, ""},
		{0.01, 32, ""},
		{math.NaN(), 64, "-eps"},
		{math.Inf(1), 64, "-eps"},
		{-1, 64, "-eps"},
		{0, 64, "-eps"},
		{1, 64, "-eps"},
		{2, 64, "-eps"},
		{0.01, -3, "-w"},
		{0.01, -1, "-w"},
	} {
		err := checkModelFlags(c.eps, c.wBits)
		if c.flag == "" {
			if err != nil {
				t.Errorf("-eps %g -w %d: rejected: %v", c.eps, c.wBits, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("-eps %g -w %d: err = %v, want a %s rejection", c.eps, c.wBits, err, c.flag)
		}
	}
	for _, c := range []struct{ wBits, want int }{{0, 64}, {32, 32}} {
		alg, err := buildAlgorithm("decoupled", core.IcebergAlloc, 1, 2, testVPages, testRAMPages,
			64, c.wBits, policy.LRUKind, policy.LRUKind, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := alg.(*mm.Decoupled).Params().W; got != c.want {
			t.Errorf("-w %d: decoupled runs at w=%d, want %d", c.wBits, got, c.want)
		}
		// The report's machine line prints the w the run uses.
		if line, want := machineLine(testVPages, testRAMPages, 64, c.wBits), fmt.Sprintf("w=%d bits", c.want); !strings.HasSuffix(line, want) {
			t.Errorf("-w %d: machine line %q, want it to end in %q", c.wBits, line, want)
		}
	}
}

// TestRunStreamMatchesRunWarm is atsim's end-to-end check of the one run
// path: a generated, a graph500 and a replayed stream each run through
// the experiments' row executor must give mm.RunWarm's costs over the
// same windows, with -dump-trace writing exactly the measured window and
// the observer's curves labeled with the workload.
func TestRunStreamMatchesRunWarm(t *testing.T) {
	dir := t.TempDir()
	newAlg := func() mm.Algorithm {
		alg, err := buildAlgorithm("decoupled", core.IcebergAlloc, 1, 2, testVPages, testRAMPages,
			64, 64, policy.LRUKind, policy.LRUKind, 1)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	// The recording the replay case reads: 150k bimodal requests.
	recording := filepath.Join(dir, "rec.bin")
	gen, err := buildGenerator("bimodal", testVPages, 1<<10, 0.99, 1.1, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	recorded := workload.Take(gen, 150_000)
	f, err := os.Create(recording)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, recorded); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, c := range []struct {
		row  string
		open func() (stream, error)
	}{
		{"bimodal", func() (stream, error) {
			// Windows that are not a multiple of the chunk size.
			return buildWorkload("bimodal", testVPages, 70_000, 90_001, 1<<10, 0.99, 1.1, 0.01, 10, 1)
		}},
		{"graph500", func() (stream, error) {
			// A scale-10 BFS is shorter than the windows asked for, so they
			// clamp to the excerpt.
			return buildWorkload("graph500", testVPages, 1_000_000, 1_000_000, 1<<10, 0.99, 1.1, 0.01, 10, 1)
		}},
		{"replay", func() (stream, error) {
			src, f, err := openReplay(recording, 1_000_000, 1_000_000)
			if err == nil {
				t.Cleanup(func() { f.Close() })
			}
			return src, err
		}},
	} {
		ref, err := c.open()
		if err != nil {
			t.Fatalf("%s: %v", c.row, err)
		}
		warm, meas := workload.Take(ref.gen, ref.warmN), workload.Take(ref.gen, ref.measN)
		want := mm.RunWarm(newAlg(), warm, meas)

		src, err := c.open()
		if err != nil {
			t.Fatal(err)
		}
		dump := filepath.Join(dir, c.row+".dump.bin")
		rec := obs.NewRecorder(10_000)
		got, stats, err := runStream(context.Background(), newAlg(), c.row, src, dump, rec)
		if err != nil {
			t.Fatalf("%s: %v", c.row, err)
		}
		if got != want || got.Accesses != uint64(len(meas)) {
			t.Errorf("%s: streamed run = %v, RunWarm over the same windows = %v", c.row, got, want)
		}
		df, err := os.Open(dump)
		if err != nil {
			t.Fatal(err)
		}
		dumped, err := trace.Read(df)
		df.Close()
		if err != nil {
			t.Fatalf("%s: reading the dump: %v", c.row, err)
		}
		if !slices.Equal(dumped, meas) {
			t.Errorf("%s: dump holds %d accesses, not the %d-access measured window", c.row, len(dumped), len(meas))
		}
		if want := trace.Summarize(meas).String(); stats != want {
			t.Errorf("%s: dump stats %q, want %q", c.row, stats, want)
		}
		for _, s := range rec.SeriesSnapshot() {
			if s.Row != c.row {
				t.Errorf("%s: curve labeled with row %q", c.row, s.Row)
			}
		}
		if ph := rec.Phases(); len(ph) != 2 || ph[1].Row != c.row || ph[1].Accesses != len(meas) {
			t.Errorf("%s: phase records %+v", c.row, ph)
		}
	}
	if src, err := buildWorkload("graph500", testVPages, 1_000_000, 1_000_000, 1<<10, 0.99, 1.1, 0.01, 10, 1); err != nil || src.warmN+src.measN >= 2_000_000 {
		t.Errorf("graph500 windows did not clamp to the BFS excerpt: %d+%d (%v)", src.warmN, src.measN, err)
	}
}
