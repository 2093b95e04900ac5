package experiments

import (
	"strings"
	"testing"
)

// renderTSV materializes a table to bytes for exact comparison.
func renderTSV(t *testing.T, tab *Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestFig1Deterministic is the regression guard for the parallel sweep:
// the same seed must produce a byte-identical Figure 1 table whether the
// huge-page rows run sequentially (Workers=1), on all cores (Workers=0),
// or on a repeated run — i.e. parallelism and map-iteration order leak
// nowhere into the numbers.
func TestFig1Deterministic(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000}

	parallel := s // Workers=0: GOMAXPROCS
	sequential := s
	sequential.Workers = 1

	first, err := Fig1(F1aBimodal, parallel, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref := renderTSV(t, first)

	again, err := Fig1(F1aBimodal, parallel, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTSV(t, again); got != ref {
		t.Errorf("parallel rerun with same seed differs:\n--- first\n%s--- rerun\n%s", ref, got)
	}

	seq, err := Fig1(F1aBimodal, sequential, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTSV(t, seq); got != ref {
		t.Errorf("sequential sweep differs from parallel:\n--- parallel\n%s--- sequential\n%s", ref, got)
	}
}

// TestSweepsDeterministicAcrossWorkers: the fixed-dimension tables fan
// out through Scale.forEach (one task per parameter point, trial or
// one-cell row) and fold each row's trials in seed order, so one worker
// and several produce byte-identical tables.
func TestSweepsDeterministicAcrossWorkers(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(Scale) (*Table, error)
	}{
		{"t1", func(s Scale) (*Table, error) { return Theorem1(s, 1<<12, 3) }},
		{"t2", func(s Scale) (*Table, error) { return Theorem2(s, 8, []int{1 << 6, 1 << 8}, 2000, 7) }},
		{"t3", func(s Scale) (*Table, error) { return Theorem3(s, 1<<12, 3) }},
		{"e3", func(s Scale) (*Table, error) { return Policies(s, 64, 20000, 7) }},
		{"whp", func(s Scale) (*Table, error) { return FailureProbability(s, []uint{10, 12}, 4) }},
		{"e6", func(s Scale) (*Table, error) { return Tenants(s, 64, 128, 20000, 7) }},
		{"e10", func(s Scale) (*Table, error) { return MultiCoreStudy(s, 64, 1<<9, 20000, 7) }},
	}
	for _, sw := range sweeps {
		one, err := sw.run(Scale{Workers: 1})
		if err != nil {
			t.Fatalf("%s workers=1: %v", sw.name, err)
		}
		many, err := sw.run(Scale{Workers: 3})
		if err != nil {
			t.Fatalf("%s workers=3: %v", sw.name, err)
		}
		if a, b := renderTSV(t, one), renderTSV(t, many); a != b {
			t.Errorf("%s: workers=3 differs from workers=1:\n%s\nvs\n%s", sw.name, b, a)
		}
	}
}
