package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"addrxlat/internal/obs"
	"addrxlat/internal/xtrace"
)

// TestTraceByteIdentical is the tracer's regression guard, the analogue of
// TestSampledRunsByteIdentical for execution tracing: running a sweep with
// the trace renderer armed must produce byte-identical tables — and, with
// a recorder, sample-curve and explain TSVs — to running it bare, across
// seeds and observer modes, at one and at four admission slots. The
// renderer only draws the wall-clock stamps the events carry; any
// divergence means timing leaked into the simulated state. Each traced
// run's export must also pass the trace schema/nesting validator and
// carry the row executor's timelines.
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

				// Bare mode arms the renderer alone; the others hand it to
				// the recorder, as the CLIs do.
				tr := xtrace.New()
				timeline := obs.NewTrace(tr)
				traced := cfg.base
				traced.Observer = timeline
				var tracedRec *obs.Recorder
				if mode.sample {
					tracedRec = obs.NewRecorder(50_000)
					tracedRec.SetTrace(timeline)
					traced.Observer = tracedRec
					traced.Explain = mode.explain
				}
				gotTab, gotCurves, gotExplain := pipelineArtifacts(t, run, traced, seed, tracedRec)

				if gotTab != wantTab {
					t.Errorf("%s seed %d %s: table changed with the trace armed\ntraced:\n%s\nbare:\n%s",
						cfg.name, seed, mode.name, gotTab, wantTab)
				}
				if gotCurves != wantCurves {
					t.Errorf("%s seed %d %s: curves TSV changed with the trace armed", cfg.name, seed, mode.name)
				}
				if gotExplain != wantExplain {
					t.Errorf("%s seed %d %s: explain TSV changed with the trace armed", cfg.name, seed, mode.name)
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
				out := buf.String()
				for _, want := range []string{
					`"name":"row f1a-bimodal"`, `"name":"ring f1a-bimodal"`, `"name":"f1a-bimodal | hugepage(h=1`,
					`"cat":"row"`, `"cat":"worker"`, `"cat":"phase"`, `"cat":"chunk"`,
					`"name":"wait generation"`, `"name":"ring"`, `"name":"ring backpressure"`,
				} {
					if !strings.Contains(out, want) {
						t.Errorf("%s seed %d %s: export lacks %s", cfg.name, seed, mode.name, want)
					}
				}
			}
		}
	}
}

// TestTraceStragglerAttribution pins the straggler report's accounting on
// the row executor: the straggler — the worker that finished last — must
// have busy + blocked time covering the row wall within 1% (the chunk
// samples' stage times tile each worker's life from the row's start to
// its last chunk), percentiles must be populated, and the bottleneck
// classification must name a real component. Four workers over eleven
// cells keep the admission gate engaged, so the busiest worker is often
// not the last to finish.
func TestTraceStragglerAttribution(t *testing.T) {
	// A longer row than the other pipeline tests use (AccessDiv 50, a few
	// hundred ms): the 1% attribution budget is a steady-state property —
	// at toy scale the fixed spawn/join overhead outside the workers'
	// stage times dominates the row wall and says nothing about the
	// accounting.
	s := Scale{SpaceDiv: 4096, AccessDiv: 50, Workers: 4}
	rec := obs.NewRecorder(0)
	rec.SetTrace(obs.NewTrace(xtrace.New()))
	s.Observer = rec

	if _, err := Fig1(F1aBimodal, s, 1); err != nil {
		t.Fatal(err)
	}

	var rep *obs.RowReport
	for _, r := range rec.Timelines() {
		if r.Row != "" && len(r.Workers) > 0 {
			rep = &r
			break
		}
	}
	if rep == nil {
		t.Fatal("no row report with workers")
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

	var straggler *obs.WorkerReport
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
