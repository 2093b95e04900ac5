package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"addrxlat/internal/core"
	"addrxlat/internal/event"
	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/serve"
	"addrxlat/internal/workload"
	"addrxlat/internal/xtrace"
)

// chunkEvent is a chunk sample of alg in row r that ends at end, with
// its stage times in milliseconds.
func chunkEvent(row, phase, alg string, end time.Time, seq int, ringMs, gateMs, batchMs int) event.Event {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return event.Event{Kind: event.KindSample, Row: row, Phase: phase, Alg: alg, At: end, Seq: seq,
		RingWait: ms(ringMs), GateWait: ms(gateMs), Batch: ms(batchMs)}
}

// exportTrace validates tr's export and returns it.
func exportTrace(t *testing.T, tr *xtrace.Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := xtrace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("export invalid: %v\n%s", err, buf.String())
	}
	return buf.String()
}

// TestTraceRowReport: a row's report aggregates its chunk samples by
// worker, names the worker that finished last as the straggler, and
// carries the row's wall and the ring producer's blocked time from the
// row's end; the drawn timelines validate.
func TestTraceRowReport(t *testing.T) {
	tr := xtrace.New()
	rec := NewRecorder(0)
	rec.SetTrace(NewTrace(tr))
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	// Worker "fast": 1 ms busy, 9 ms waiting on generation.
	rec.Observe(chunkEvent("r", mm.PhaseWarmup, "fast", at(2), 0, 1, 0, 1))
	rec.Observe(chunkEvent("r", mm.PhaseMeasured, "fast", at(10), 1, 8, 0, 0))
	// Worker "slow": 9 ms busy, 0.5 ms admission wait, and the last to end.
	rec.Observe(chunkEvent("r", mm.PhaseWarmup, "slow", at(4), 0, 0, 0, 4))
	rec.Observe(chunkEvent("r", mm.PhaseMeasured, "slow", at(10), 1, 0, 1, 5))
	rec.Observe(event.Event{Kind: event.KindPublish, Row: "r", At: at(3), Seq: 1,
		RingWait: time.Millisecond, Batch: time.Millisecond, Ring: workload.RingStats{Chunks: 2, ProducerWaits: 1, InFlight: 2}})
	rec.Observe(event.Event{Kind: event.KindRing, Row: "r", At: at(11), Elapsed: 11 * time.Millisecond,
		RingWait: time.Millisecond, Ring: workload.RingStats{Chunks: 2}})

	reps := rec.Timelines()
	if len(reps) != 1 {
		t.Fatalf("got %d row reports, want 1", len(reps))
	}
	r := reps[0]
	if r.Row != "r" || r.Straggler != "slow" || r.Bottleneck != "simulation" {
		t.Fatalf("row/straggler/bottleneck = %q/%q/%q, want r/slow/simulation", r.Row, r.Straggler, r.Bottleneck)
	}
	if r.WallSeconds != 0.011 || r.ProducerBlockedSeconds != 0.001 {
		t.Fatalf("row wall %v, producer blocked %v; want 0.011, 0.001", r.WallSeconds, r.ProducerBlockedSeconds)
	}
	byAlg := map[string]WorkerReport{}
	for _, w := range r.Workers {
		byAlg[w.Alg] = w
	}
	if w := byAlg["fast"]; w.Chunks != 2 || w.BusySeconds != 0.001 || w.BlockedGenerationSeconds != 0.009 || w.WallSeconds != 0.010 {
		t.Fatalf("fast worker attribution off: %+v", w)
	}
	if w := byAlg["slow"]; w.Chunks != 2 || w.BusySeconds != 0.009 || w.BlockedAdmissionSeconds != 0.001 || w.WallSeconds != 0.010 {
		t.Fatalf("slow worker attribution off: %+v", w)
	}
	// The stage times tile each worker's life, so busy+blocked is its wall.
	for _, w := range r.Workers {
		if acc := w.BusySeconds + w.Blocked(); acc < w.WallSeconds-1e-9 || acc > w.WallSeconds+1e-9 {
			t.Errorf("worker %s: busy+blocked %.6f vs wall %.6f", w.Alg, acc, w.WallSeconds)
		}
	}

	var tsv strings.Builder
	if err := WriteTimelineTSV(&tsv, reps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tsv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline TSV has %d lines, want header + 2 workers:\n%s", len(lines), tsv.String())
	}
	if !strings.Contains(lines[0], "p999_us") || !strings.Contains(tsv.String(), "simulation") {
		t.Fatalf("timeline TSV missing columns:\n%s", tsv.String())
	}
	if !strings.Contains(r.Summary(), "straggler slow") {
		t.Fatalf("summary = %q", r.Summary())
	}

	out := exportTrace(t, tr)
	for _, want := range []string{`"row r"`, `"ring r"`, `"r | fast"`, `"r | slow"`, `"cat":"worker"`,
		`"cat":"phase"`, `"wait admission"`, `"wait consumers"`, `"ring backpressure"`} {
		if !strings.Contains(out, want) {
			t.Errorf("export lacks %s", want)
		}
	}
}

// TestTraceStragglerEndsLast: the straggler is the worker whose last
// chunk ends last even when another worker was busier — with an
// admission gate the busiest worker can finish first, and the row's wall
// time ends with the last one. Serve cells have no lifetime and tie, so
// the busier one is named; a serve table's wall is its longest cell.
func TestTraceStragglerEndsLast(t *testing.T) {
	rec := NewRecorder(0)
	rec.SetTrace(NewTrace(xtrace.New()))
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	rec.Observe(chunkEvent("r", mm.PhaseMeasured, "busy", at(8), 0, 0, 0, 8))
	rec.Observe(chunkEvent("r", mm.PhaseMeasured, "late", at(10), 0, 0, 6, 4))
	rec.Observe(event.Event{Kind: event.KindRing, Row: "r", At: at(10), Elapsed: 10 * time.Millisecond})

	rec.Observe(event.Event{Kind: event.KindPhase, Row: "sv", Phase: event.PhaseServe, Alg: "light|load=1",
		At: at(1), Elapsed: time.Millisecond})
	rec.Observe(event.Event{Kind: event.KindPhase, Row: "sv", Phase: event.PhaseServe, Alg: "heavy|load=1",
		At: at(3), Elapsed: 3 * time.Millisecond})
	rec.Observe(event.Event{Kind: event.KindServe, Row: "sv", At: at(3), Serve: &serve.SweepRecord{Table: "sv"}})

	reps := rec.Timelines()
	if len(reps) != 2 {
		t.Fatalf("got %d row reports, want 2", len(reps))
	}
	if r := reps[0]; r.Straggler != "late" || r.Bottleneck != "admission" {
		t.Errorf("row r: straggler/bottleneck = %q/%q, want late/admission", r.Straggler, r.Bottleneck)
	}
	if r := reps[1]; r.Straggler != "heavy|load=1" || r.WallSeconds != 0.003 {
		t.Errorf("serve table: straggler %q, wall %v; want heavy|load=1, 0.003", r.Straggler, r.WallSeconds)
	}
}

// serveRuns are the two armed serve runs of serve's
// TestMetricsExemplarAttribution, each as a sweep record: a governed 2.5×
// overload (trips, sheds, timeouts) keeping 5 exemplars, and a
// failure-IO run whose requests retry (backoff) keeping retryK.
func serveRuns(t *testing.T, retryK int) []serve.SweepRecord {
	t.Helper()
	overload := func() *serve.Sim {
		const seed = 42
		a, err := mm.NewHugePage(mm.HugePageConfig{HugePageSize: 1, TLBEntries: 64, RAMPages: 1 << 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewUniform(1<<14, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(serve.Config{
			Seed: seed, Requests: 4000, BlockPages: 64, QueueCap: 128, MaxAttempts: 3, RetryBaseNs: 1000,
			Governor: serve.GovernorConfig{WindowNs: 1, QueueHigh: 96, MissNum: 1, MissDen: 5, RecoverDepth: 24, DegradedDiv: 4},
		}, a, gen, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mean := s.Calibrate(1000)
		s.SetDeadlineNs(150 * mean)
		s.SetGovernorWindowNs(30 * mean)
		s.SetArrivals(workload.NewPoisson(seed+2, float64(mean)/2.5))
		return s
	}
	retries := func() *serve.Sim {
		const seed = 11
		a, err := mm.NewDecoupled(mm.DecoupledConfig{
			Alloc: core.SingleChoice, RAMPages: 1 << 10, VirtualPages: 1 << 14,
			TLBEntries: 64, ValueBits: 64, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewUniform(1<<14, seed+1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := serve.New(serve.Config{
			Seed: seed, Requests: 3000, BlockPages: 64, QueueCap: 128, MaxAttempts: 3, RetryBaseNs: 500,
		}, a, gen, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		mean := s.Calibrate(1000)
		s.SetArrivals(workload.NewPoisson(seed+2, float64(mean)/0.9))
		return s
	}
	var recs []serve.SweepRecord
	for i, mk := range []func() *serve.Sim{overload, retries} {
		s := mk()
		k := 5
		if i == 1 {
			k = retryK
		}
		s.ArmMetrics(metrics.Config{WidthNs: 64 * s.MeanServiceNs(), BudgetNs: 40 * s.MeanServiceNs(), Exemplars: k})
		res := s.Run()
		recs = append(recs, serve.SweepRecord{
			Table: fmt.Sprintf("run%d", i), Points: []serve.Point{serve.PointFrom("alg", 2.5, res)},
		})
	}
	return recs
}

// drawServe feeds recs to a fresh Trace as simulated serve cells and
// returns the export.
func drawServe(t *testing.T, recs []serve.SweepRecord) string {
	t.Helper()
	tr := xtrace.New()
	tl := NewTrace(tr)
	now := time.Now().Add(time.Second) // each cell's span starts after the tracer
	for i := range recs {
		p := recs[i].Points[0]
		tl.Observe(event.Event{Kind: event.KindPhase, Row: recs[i].Table, Phase: event.PhaseServe,
			Alg: fmt.Sprintf("%s|load=%g", p.Alg, p.Load), At: now, Elapsed: time.Millisecond})
		tl.Observe(event.Event{Kind: event.KindServe, Row: recs[i].Table, At: now, Serve: &recs[i]})
	}
	return exportTrace(t, tr)
}

// TestServeTraceValidates pins the serve trace surface end to end: an
// armed overload run (governor trips, sheds, timeouts) and an armed retry
// run (backoff spans), drawn from their sweep records, export a trace
// that passes the serve schema, with every span category present. The
// retry run keeps every terminal request: retries are rare, and the
// retried requests are not necessarily among the slowest few.
func TestServeTraceValidates(t *testing.T) {
	out := drawServe(t, serveRuns(t, 3000))
	for _, want := range []string{
		xtrace.CatServeRequest, xtrace.CatServeQueued, xtrace.CatServeAttempt, xtrace.CatServeBackoff,
		xtrace.InstantGovTrip, xtrace.InstantShed, "serve req#", "serve run0 alg|load=2.5", "run1 | alg|load=2.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace lacks %q", want)
		}
	}
}

// TestServeTraceExemplarSpans: for every exemplar of
// TestMetricsExemplarAttribution's runs, the spans drawn on its thread,
// summed per category, equal its QueuedNs, ServiceNs and BackoffNs — the
// split and the drawing walk the attempt timeline once, through
// serve.Segments.
func TestServeTraceExemplarSpans(t *testing.T) {
	recs := serveRuns(t, 5)
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(drawServe(t, recs)), &doc); err != nil {
		t.Fatal(err)
	}
	thread := map[string]int{}
	sums := map[int]map[string]float64{} // tid → category → µs
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			thread[e.Args["name"].(string)] = e.TID
		case e.Ph == "X":
			if sums[e.TID] == nil {
				sums[e.TID] = map[string]float64{}
			}
			sums[e.TID][e.Cat] += e.Dur
		}
	}
	n := 0
	for _, rec := range recs {
		p := rec.Points[0]
		for _, ex := range p.Metrics.Exemplars {
			tid, ok := thread[fmt.Sprintf("serve req#%d %s %s|load=%g", ex.Seq, rec.Table, p.Alg, p.Load)]
			if !ok {
				t.Fatalf("%s: no thread for exemplar %d", rec.Table, ex.Seq)
			}
			n++
			got := sums[tid]
			for cat, want := range map[string]int64{
				xtrace.CatServeQueued:  ex.QueuedNs,
				xtrace.CatServeAttempt: ex.ServiceNs,
				xtrace.CatServeBackoff: ex.BackoffNs,
			} {
				if d := got[cat]*1e3 - float64(want); d < -0.5 || d > 0.5 {
					t.Errorf("%s exemplar %d (%s, %d attempts): %s spans sum to %.0f ns, split says %d",
						rec.Table, ex.Seq, ex.Outcome, ex.Attempts, cat, got[cat]*1e3, want)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no exemplars drawn")
	}
}

// TestTraceConcurrentObserve: the row executor's workers and the ring's
// producer report concurrently; every worker's chunks land in the row's
// report, which the row's end closes.
func TestTraceConcurrentObserve(t *testing.T) {
	tr := xtrace.New()
	rec := NewRecorder(1)
	rec.SetTrace(NewTrace(tr))
	t0 := time.Now()
	const workers, chunks = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= chunks; i++ {
				e := chunkEvent("r", mm.PhaseMeasured, fmt.Sprint("alg", w), t0.Add(time.Duration(i)*time.Millisecond), i, 0, 0, 1)
				e.Costs.Accesses = uint64(i)
				rec.Observe(e)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= chunks; i++ {
			rec.Observe(event.Event{Kind: event.KindPublish, Row: "r", At: t0.Add(time.Duration(i) * time.Millisecond), Seq: i})
		}
	}()
	wg.Wait()
	rec.Observe(event.Event{Kind: event.KindRing, Row: "r", At: t0.Add(time.Second), Elapsed: time.Second})
	reps := rec.Timelines()
	if len(reps) != 1 || len(reps[0].Workers) != workers {
		t.Fatalf("got %d reports, want one with %d workers: %+v", len(reps), workers, reps)
	}
	for _, w := range reps[0].Workers {
		if w.Chunks != chunks {
			t.Errorf("worker %s: %d chunks, want %d", w.Alg, w.Chunks, chunks)
		}
	}
	exportTrace(t, tr)
}
