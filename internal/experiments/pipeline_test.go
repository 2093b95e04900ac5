package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"addrxlat/internal/faultinject"
	"addrxlat/internal/mm"
	"addrxlat/internal/obs"
	"addrxlat/internal/workload"
)

// pipelineArtifacts runs one experiment under the given scale and renders
// every comparable artifact: the result table, and — when a recorder is
// attached — the sample-curve TSV and the explain TSV, exactly as
// cmd/figures writes them.
func pipelineArtifacts(t *testing.T, run func(Scale, uint64) (*Table, error), s Scale, seed uint64, rec *obs.Recorder) (table, curves, explainTSV string) {
	t.Helper()
	tab, err := run(s, seed)
	if err != nil {
		t.Fatalf("workers=%d seed=%d: %v", s.Workers, seed, err)
	}
	curves, explainTSV = recorderTSVs(t, rec)
	return renderTSV(t, tab), curves, explainTSV
}

// recorderTSVs renders a recorder's sample-curve and explain TSVs; both
// are empty for a nil recorder.
func recorderTSVs(t *testing.T, rec *obs.Recorder) (curves, explainTSV string) {
	t.Helper()
	if rec == nil {
		return "", ""
	}
	var c, e strings.Builder
	if err := rec.WriteTSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteExplainTSV(&e); err != nil {
		t.Fatal(err)
	}
	return c.String(), e.String()
}

// cacheAllButOne returns a result cache holding every Fig1a cell of
// (s, seed) except h=4's, so a Fig1a run over it streams a row of one
// simulator.
func cacheAllButOne(t *testing.T, s Scale, seed uint64) *memCache {
	t.Helper()
	c := &memCache{m: make(map[string]mm.Costs)}
	s.Cache, s.Observer, s.Explain = c, nil, false
	if _, err := Fig1(F1aBimodal, s, seed); err != nil {
		t.Fatal(err)
	}
	n := len(c.m)
	for k := range c.m {
		if strings.Contains(k, "|alg=hugepage(h=4,") {
			delete(c.m, k)
		}
	}
	if len(c.m) != n-1 {
		t.Fatalf("expected to evict exactly the h=4 cell, cache went from %d to %d entries", n, len(c.m))
	}
	return c
}

// TestPipelinedMatchesMaterialized is the row executor's differential
// guard against an independent reference: every cell run alone through
// the reference two-phase loop (runWarmAlone) over the row's materialized
// windows. For Fig1a, Crossover, Related (e7) and TLBGeometryStudy (e9),
// each observer mode (bare, -sample, -explain), seeds 1/7/42 and Workers
// 1, 4 and GOMAXPROCS, the tables — and with an observer, the
// sample-curve and explain TSVs — must be byte-identical. The "cached"
// case serves every Fig1a cell but one from the result cache, so the
// executor streams a one-simulator row. The ring only changes when
// chunks are simulated, never what any simulator observes.
func TestPipelinedMatchesMaterialized(t *testing.T) {
	base := Scale{SpaceDiv: 4096, AccessDiv: 500} // 8 chunks per row against a ring depth of 4
	fig1a := func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) }
	fig1aRef := func(t *testing.T, s Scale, seed uint64) string { return fig1MaterializedTSV(t, F1aBimodal, s, seed) }
	experiments := []struct {
		name   string
		run    func(Scale, uint64) (*Table, error)
		ref    func(*testing.T, Scale, uint64) string
		cached bool
	}{
		{"fig1a", fig1a, fig1aRef, false},
		{"crossover", Crossover, crossoverMaterializedTSV, false},
		{"related", Related, relatedMaterializedTSV, false},
		{"geometry", TLBGeometryStudy, geometryMaterializedTSV, false},
		{"fig1a-cached", fig1a, fig1aRef, true},
	}
	workerSettings := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 4 {
		workerSettings = append(workerSettings, n)
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
	// observed attaches a fresh recorder per the mode.
	observed := func(s Scale, sample, explain bool) (Scale, *obs.Recorder) {
		if !sample {
			return s, nil
		}
		rec := obs.NewRecorder(50_000)
		s.Observer, s.Explain = rec, explain
		return s, rec
	}

	for _, seed := range []uint64{1, 7, 42} {
		for _, e := range experiments {
			var cache *memCache
			if e.cached {
				cache = cacheAllButOne(t, base, seed)
			}
			for _, mode := range modes {
				ref, refRec := observed(base, mode.sample, mode.explain)
				if cache != nil {
					ref.Cache = cache.clone()
				}
				wantTab := e.ref(t, ref, seed)
				wantCurves, wantExplain := recorderTSVs(t, refRec)

				for _, w := range workerSettings {
					pipe, pipeRec := observed(base, mode.sample, mode.explain)
					pipe.Workers = w
					if cache != nil {
						pipe.Cache = cache.clone()
					}
					gotTab, gotCurves, gotExplain := pipelineArtifacts(t, e.run, pipe, seed, pipeRec)
					if gotTab != wantTab {
						t.Errorf("%s seed %d %s: table differs at Workers=%d\nrow executor:\n%s\nmaterialized:\n%s",
							e.name, seed, mode.name, w, gotTab, wantTab)
					}
					if gotCurves != wantCurves {
						t.Errorf("%s seed %d %s: curves TSV differs at Workers=%d\nrow executor:\n%s\nmaterialized:\n%s",
							e.name, seed, mode.name, w, gotCurves, wantCurves)
					}
					if gotExplain != wantExplain {
						t.Errorf("%s seed %d %s: explain TSV differs at Workers=%d\nrow executor:\n%s\nmaterialized:\n%s",
							e.name, seed, mode.name, w, gotExplain, wantExplain)
					}
					if cache != nil && mode.sample && !strings.Contains(gotCurves, "hugepage(h=4,") {
						t.Errorf("%s seed %d %s: the uncached h=4 cell left no curve", e.name, seed, mode.name)
					}
				}
			}
		}
	}
}

// TestPipelinedRaceSmoke is the `make check` race-detector smoke: one
// Fig1a row at Workers=4 (8 chunks against a ring depth of 4), with
// sampling and attribution on, so every concurrent seam (ring
// publish/release, gate, observer delivery, phase clock) gets exercised
// under -race.
func TestPipelinedRaceSmoke(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4, Explain: true}
	s.Observer = obs.NewRecorder(50_000)
	if _, err := Fig1(F1aBimodal, s, 1); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedKillMidRow cancels a pipelined row from inside an observer
// callback and asserts the clean-drain contract: the row returns an error
// wrapping context.Canceled, no table is produced, and every goroutine
// the executor started (ring producer, watcher, per-sim workers) has
// exited.
func TestPipelinedKillMidRow(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4, Ctx: ctx}
	// Cancel as soon as any simulator reports its first measured-phase
	// sample — mid-row, while every worker is in flight.
	s.Observer = &cancelObserver{phase: mm.PhaseMeasured, cancel: cancel}

	tab, err := Fig1(F1aBimodal, s, 1)
	if err == nil {
		t.Fatal("expected a cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if tab != nil {
		t.Fatal("canceled sweep still produced a table")
	}

	// All executor goroutines must drain — give the scheduler a moment,
	// then compare against the pre-run count.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelinedPoisonedCell mirrors TestPoisonedCellFootnote on the
// pipelined executor: one worker's panic poisons only its own cell — the
// survivors keep streaming and the table degrades to a footnoted error
// row, byte-identical in every healthy cell to a clean run.
func TestPipelinedPoisonedCell(t *testing.T) {
	s := Scale{SpaceDiv: 4096, AccessDiv: 500, Workers: 4}
	clean, err := Fig1(F1aBimodal, s, 7)
	if err != nil {
		t.Fatal(err)
	}

	defer faultinject.Disarm()
	if err := faultinject.Arm("cell-panic=(h=4"); err != nil {
		t.Fatal(err)
	}
	poisoned, err := Fig1(F1aBimodal, s, 7)
	faultinject.Disarm()
	if err != nil {
		t.Fatalf("poisoned cell must not fail the row: %v", err)
	}
	if len(poisoned.Notes) != 1 || !strings.Contains(poisoned.Notes[0], "h=4") {
		t.Fatalf("expected one h=4 footnote, got %v", poisoned.Notes)
	}
	errRows := 0
	for i, row := range poisoned.Rows {
		isErr := false
		for _, cell := range row {
			if cell == "error" {
				isErr = true
			}
		}
		if isErr {
			errRows++
			continue
		}
		for j, cell := range row {
			if clean.Rows[i][j] != cell {
				t.Errorf("healthy row %d cell %d changed: %q != %q", i, j, cell, clean.Rows[i][j])
			}
		}
	}
	if errRows != 1 {
		t.Fatalf("expected exactly 1 error row, got %d", errRows)
	}
}

// panicOnReset is a simulator whose counter reset panics: a fault inside
// the worker's own loop (the warmup→measured edge), outside serveChunk.
type panicOnReset struct{ mm.Algorithm }

func (panicOnReset) ResetCosts() { panic("reset failed") }

// TestWorkerPanicIsRowError: a worker panic outside serveChunk is a
// harness fault, not a poisoned cell. With and without the watchdog
// armed, the row must come back with the panic as its error — the other
// worker draining because the ring is stopped — instead of crashing the
// process or wedging the join.
func TestWorkerPanicIsRowError(t *testing.T) {
	for _, wd := range []time.Duration{0, 30 * time.Second} {
		var sims []mm.Algorithm
		for range 2 {
			a, err := mm.NewHugePage(mm.HugePageConfig{HugePageSize: 1, TLBEntries: 16, RAMPages: 256, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sims = append(sims, a)
		}
		sims[1] = panicOnReset{sims[1]}
		gen, err := workload.NewUniform(1<<12, 1)
		if err != nil {
			t.Fatal(err)
		}
		s := Scale{Workers: 2, Watchdog: wd}
		err = RunStream(s, "panic-row", gen, 8*streamChunk, 8*streamChunk, sims...)
		if err == nil || !strings.Contains(err.Error(), "reset failed") {
			t.Fatalf("watchdog %v: row error = %v, want the worker's panic", wd, err)
		}
	}
}
