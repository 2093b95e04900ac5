package experiments

import (
	"bytes"
	"math"
	"testing"

	"addrxlat/internal/obs"
	"addrxlat/internal/xtrace"
)

// TestTraceByteIdentical is the tracer's regression guard, the analogue of
// TestSampledRunsByteIdentical for execution tracing: running a sweep with
// a Tracer installed must produce byte-identical tables — and, with an
// observer, sample-curve and explain TSVs — to running it bare, across
// seeds and observer modes, at one and at four admission slots. The tracer only
// stamps wall-clock spans at chunk boundaries; any divergence means
// tracing leaked into the simulated state. Each traced run's export must
// also pass the trace schema/nesting validator.
func TestTraceByteIdentical(t *testing.T) {
	run := func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) }
	configs := []struct {
		name string
		base Scale
	}{
		{"one-slot", Scale{SpaceDiv: 4096, AccessDiv: 10000, Workers: 1}},
		{"four-slot", Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4}},
	}
	modes := []struct {
		name    string
		sample  bool
		explain bool
	}{
		{"bare", false, false},
		{"sample", true, false},
		{"explain", true, true},
	}

	for _, seed := range []uint64{1, 7, 42} {
		for _, cfg := range configs {
			for _, mode := range modes {
				bare := cfg.base
				var bareRec *obs.Recorder
				if mode.sample {
					bareRec = obs.NewRecorder(50_000)
					bare.Observer = bareRec
					bare.Explain = mode.explain
				}
				wantTab, wantCurves, wantExplain := pipelineArtifacts(t, run, bare, seed, bareRec)

				traced := cfg.base
				var tracedRec *obs.Recorder
				if mode.sample {
					tracedRec = obs.NewRecorder(50_000)
					traced.Observer = tracedRec
					traced.Explain = mode.explain
				}
				tr := xtrace.New()
				tr.SetScope("test")
				xtrace.Install(tr)
				gotTab, gotCurves, gotExplain := pipelineArtifacts(t, run, traced, seed, tracedRec)
				xtrace.Install(nil)

				if gotTab != wantTab {
					t.Errorf("%s seed %d %s: table changed with tracer installed\ntraced:\n%s\nbare:\n%s",
						cfg.name, seed, mode.name, gotTab, wantTab)
				}
				if gotCurves != wantCurves {
					t.Errorf("%s seed %d %s: curves TSV changed with tracer installed", cfg.name, seed, mode.name)
				}
				if gotExplain != wantExplain {
					t.Errorf("%s seed %d %s: explain TSV changed with tracer installed", cfg.name, seed, mode.name)
				}

				var buf bytes.Buffer
				if err := tr.WriteJSON(&buf); err != nil {
					t.Fatalf("%s seed %d %s: export: %v", cfg.name, seed, mode.name, err)
				}
				spans, err := xtrace.Validate(buf.Bytes())
				if err != nil {
					t.Fatalf("%s seed %d %s: trace invalid: %v", cfg.name, seed, mode.name, err)
				}
				if spans == 0 {
					t.Fatalf("%s seed %d %s: traced run exported no spans", cfg.name, seed, mode.name)
				}
			}
		}
	}
}

// TestTraceStragglerAttribution pins the straggler report's accounting on
// the row executor: the straggler — the worker that finished last — must
// have busy + blocked time covering the row wall within 1% (the executor's
// loop spends everything inside a chunk, wait-generation, or
// wait-admission span), percentiles must be populated, and the bottleneck
// classification must name a real component. Four workers over eleven
// cells keep the admission gate engaged, so the busiest worker is often
// not the last to finish.
func TestTraceStragglerAttribution(t *testing.T) {
	// A longer row than the other pipeline tests use (AccessDiv 50, a few
	// hundred ms): the 1% attribution budget is a steady-state property —
	// at toy scale the fixed spawn/join overhead outside the workers' spans
	// dominates the row wall and says nothing about the accounting.
	s := Scale{SpaceDiv: 4096, AccessDiv: 50, Workers: 4}
	tr := xtrace.New()
	tr.SetScope("test")
	xtrace.Install(tr)
	defer xtrace.Install(nil)

	if _, err := Fig1(F1aBimodal, s, 1); err != nil {
		t.Fatal(err)
	}

	var rep *xtrace.RowReport
	for _, r := range tr.Analyze() {
		if r.Row != "" && len(r.Workers) > 0 {
			rep = &r
			break
		}
	}
	if rep == nil {
		t.Fatal("no row report with workers in the trace")
	}
	if rep.WallSeconds <= 0 {
		t.Fatalf("row wall = %v, want > 0", rep.WallSeconds)
	}
	if rep.Straggler == "" {
		t.Fatal("no straggler named")
	}
	switch rep.Bottleneck {
	case "simulation", "generation", "admission":
	default:
		t.Fatalf("bottleneck = %q", rep.Bottleneck)
	}

	var straggler *xtrace.WorkerReport
	for i, w := range rep.Workers {
		if w.Chunks == 0 {
			t.Errorf("worker %s recorded no chunks", w.Alg)
		}
		if w.P50Micros <= 0 || w.P99Micros < w.P50Micros || w.MaxMicros < w.P99Micros {
			t.Errorf("worker %s percentiles not ordered: p50=%v p99=%v max=%v",
				w.Alg, w.P50Micros, w.P99Micros, w.MaxMicros)
		}
		if w.Alg == rep.Straggler {
			straggler = &rep.Workers[i]
		}
	}
	if straggler == nil {
		t.Fatalf("straggler %q not among the workers", rep.Straggler)
	}

	attributed := straggler.BusySeconds + straggler.Blocked()
	gap := math.Abs(rep.WallSeconds-attributed) / rep.WallSeconds
	if gap > 0.01 {
		t.Fatalf("straggler attribution gap %.2f%%: busy %.4fs + blocked %.4fs vs wall %.4fs",
			gap*100, straggler.BusySeconds, straggler.Blocked(), rep.WallSeconds)
	}
}
