package main

import (
	"math"
	"strings"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/policy"
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
	if _, _, _, err := buildWorkload("bogus", testVPages, 10, 10, 1<<10, 0.99, 1.1, 0.01, 10, 1); err == nil {
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
