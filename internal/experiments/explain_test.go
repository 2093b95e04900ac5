package experiments

import (
	"testing"

	"addrxlat/internal/obs"
)

// TestExplainByteIdentical is the attribution regression guard: running
// the sweeps with Explain on (counters allocated in every algorithm,
// attribution delivered at chunk boundaries) must produce byte-identical
// tables to running them bare, at several seeds. The explain counters
// are observation-only — any divergence means an instrumentation site
// mutated algorithm state or steered a branch.
func TestExplainByteIdentical(t *testing.T) {
	checkObservedByteIdentical(t, true)
}

// TestExplainAccountsForCosts: the attribution must decompose the cost
// counters, not merely correlate with them — summed across the explain
// series of a phase, the IO and TLB-miss events must equal the simulator's
// Costs for algorithms with exact attribution (the Figure 1 hugepage
// family).
func TestExplainAccountsForCosts(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000}
	s.Explain = true
	rec := obs.NewRecorder(1)
	s.Observer = rec
	tab, err := Fig1(F1aBimodal, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tab == nil || len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	checked := 0
	for _, es := range rec.ExplainSnapshot() {
		if es.Phase != "measured" {
			continue
		}
		// The latest curve point of the matching series holds the phase's
		// final Costs for the same (row, phase, alg).
		for _, sr := range rec.SeriesSnapshot() {
			if sr.Row != es.Row || sr.Phase != es.Phase || sr.Alg != es.Alg || len(sr.Points) == 0 {
				continue
			}
			last := sr.Points[len(sr.Points)-1]
			if got, want := es.Counters.IOs(), last.IOs; got != want {
				t.Errorf("%s/%s: attributed IOs %d != costs %d", es.Row, es.Alg, got, want)
			}
			if got, want := es.Counters.TLBMisses(), last.TLBMisses; got != want {
				t.Errorf("%s/%s: attributed TLB misses %d != costs %d", es.Row, es.Alg, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no (explain, curve) series pairs to compare")
	}
}
