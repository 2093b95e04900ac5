package experiments

import (
	"testing"

	"addrxlat/internal/obs"
)

// TestSampledRunsByteIdentical is the telemetry regression guard:
// running the sweeps with an Observer attached must produce
// byte-identical tables to running them bare, at several seeds. The
// observer only reads counters between chunks, and chunking an
// AccessBatch changes no state transitions (the Batcher contract), so any
// divergence means a hook leaked into the access path.
func TestSampledRunsByteIdentical(t *testing.T) {
	checkObservedByteIdentical(t, false)
}

// checkObservedByteIdentical runs five experiment families at seeds
// 1/7/42, bare and with a Recorder attached (Explain set to explain), and
// fails on any table difference or on a recorder that saw no series, no
// phase records, or attribution that does not match explain.
func checkObservedByteIdentical(t *testing.T, explain bool) {
	t.Helper()
	base := Scale{SpaceDiv: 4096, AccessDiv: 10000}

	experiments := []struct {
		name string
		run  func(Scale, uint64) (*Table, error)
	}{
		{"fig1a", func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) }},
		{"crossover", Crossover},
		{"related", Related},
		{"geometry", TLBGeometryStudy},
		{"adaptive", Adaptive},
	}

	for _, seed := range []uint64{1, 7, 42} {
		for _, e := range experiments {
			bare, err := e.run(base, seed)
			if err != nil {
				t.Fatalf("%s seed %d (bare): %v", e.name, seed, err)
			}
			want := renderTSV(t, bare)

			observed := base
			rec := obs.NewRecorder(50_000)
			observed.Observer, observed.Explain = rec, explain
			tab, err := e.run(observed, seed)
			if err != nil {
				t.Fatalf("%s seed %d explain=%v: %v", e.name, seed, explain, err)
			}
			if got := renderTSV(t, tab); got != want {
				t.Errorf("%s seed %d explain=%v: table changed with an observer attached\nobserved:\n%s\nbare:\n%s",
					e.name, seed, explain, got, want)
			}
			if !rec.HasSeries() {
				t.Errorf("%s seed %d explain=%v: no series recorded", e.name, seed, explain)
			}
			if len(rec.Phases()) == 0 {
				t.Errorf("%s seed %d explain=%v: no phase records", e.name, seed, explain)
			}
			if rec.HasExplain() != explain {
				t.Errorf("%s seed %d explain=%v: attribution recorded = %v", e.name, seed, explain, rec.HasExplain())
			}
		}
	}
}

// TestProbeSeesBothPhases: the streaming rows must report warmup and
// measured windows separately, with warmup counters reset away.
func TestProbeSeesBothPhases(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 10000}
	rec := obs.NewRecorder(1) // record every chunk-boundary sample
	s.Observer = rec
	if _, err := Fig1(F1aBimodal, s, 1); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, sr := range rec.SeriesSnapshot() {
		phases[sr.Phase] = true
		for _, p := range sr.Points {
			if p.Accesses == 0 {
				t.Fatalf("series %s/%s has a zero-access point", sr.Phase, sr.Alg)
			}
		}
	}
	if !phases["warmup"] || !phases["measured"] {
		t.Fatalf("phases seen = %v, want warmup and measured", phases)
	}
}
