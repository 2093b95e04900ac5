package experiments

import (
	"maps"
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

// checkObservedByteIdentical runs seven experiment families at seeds
// 1/7/42, bare and with a Recorder attached (Explain set to explain), and
// fails on any table difference, on a recorder that saw no series or no
// phase records, on a row with one but not the other, or on attribution
// that does not match explain. e6 and e10 run with small parameters; each
// of their five one-cell rows must be recorded.
func checkObservedByteIdentical(t *testing.T, explain bool) {
	t.Helper()
	base := Scale{SpaceDiv: 4096, AccessDiv: 10000}

	experiments := []struct {
		name string
		run  func(Scale, uint64) (*Table, error)
		rows int // distinct rows the recorder must see; 0 skips the count
	}{
		{"fig1a", func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) }, 1},
		{"crossover", Crossover, 0},
		{"related", Related, 1},
		{"geometry", TLBGeometryStudy, 2},
		{"adaptive", Adaptive, 1},
		{"tenants", func(s Scale, seed uint64) (*Table, error) { return Tenants(s, 64, 128, 20000, seed) }, 5},
		{"multicore", func(s Scale, seed uint64) (*Table, error) { return MultiCoreStudy(s, 64, 1<<9, 20000, seed) }, 5},
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
			seriesRows, phaseRows := map[string]bool{}, map[string]bool{}
			for _, sr := range rec.SeriesSnapshot() {
				seriesRows[sr.Row] = true
			}
			for _, p := range rec.Phases() {
				phaseRows[p.Row] = true
			}
			if !maps.Equal(seriesRows, phaseRows) || (e.rows > 0 && len(seriesRows) != e.rows) {
				t.Errorf("%s seed %d explain=%v: rows with series %v, rows with phase records %v, want %d of each",
					e.name, seed, explain, seriesRows, phaseRows, e.rows)
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
