package serve

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// armTest attaches a collector with the standard test policy: windows of
// 64× the calibrated mean, a 40×mean budget, 5 exemplars.
func armTest(s *Sim) {
	s.ArmMetrics(metrics.Config{
		WidthNs:   64 * s.MeanServiceNs(),
		BudgetNs:  40 * s.MeanServiceNs(),
		Exemplars: 5,
	})
}

// retrySim builds the failure-IO-producing configuration of
// TestRetriesOnFailureIOs, so metrics tests cover the retry/backoff
// lifecycle too.
func retrySim(t *testing.T, seed uint64) *Sim {
	t.Helper()
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
	s, err := New(Config{
		Seed: seed, Requests: 3000, BlockPages: 64, QueueCap: 128,
		MaxAttempts: 3, RetryBaseNs: 500,
	}, a, gen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := s.Calibrate(1000)
	s.SetArrivals(workload.NewPoisson(seed+2, float64(mean)/0.9))
	return s
}

// TestMetricsByteIdenticalRun is the sim-level byte-identity pin: an
// armed run and a bare run of the same configuration produce identical
// counters, horizon, and latency distribution — the collector only
// observes.
func TestMetricsByteIdenticalRun(t *testing.T) {
	for _, load := range []float64{0.5, 2.5} {
		bare := testSim(t, 7, load, true).Run()
		armed := testSim(t, 7, load, true)
		armTest(armed)
		got := armed.Run()
		if got.Counters != bare.Counters || got.HorizonNs != bare.HorizonNs ||
			got.Latency.Quantile(0.99) != bare.Latency.Quantile(0.99) ||
			got.Latency.Count() != bare.Latency.Count() {
			t.Fatalf("load %g: armed run diverged from bare run:\n%+v\n%+v", load, got.Counters, bare.Counters)
		}
		if got.Metrics == nil || bare.Metrics != nil {
			t.Fatalf("load %g: Metrics presence wrong (armed %v, bare %v)", load, got.Metrics != nil, bare.Metrics)
		}
	}
}

// TestMetricsWindowAccounting pins that the window stream is a lossless
// decomposition of the run: summing any counter over the windows yields
// the run's terminal counter, and the completion latency count matches.
// Failure IOs are checked against the cost model instead: Theorem 4
// charges a request to a page in F one decoding miss, and nothing else
// charges one, so the windows' failure IOs must add up to the
// simulator's decoding-miss growth over the measured run.
func TestMetricsWindowAccounting(t *testing.T) {
	for _, cfg := range []struct {
		name     string
		sim      func() *Sim
		failures bool // the run must see failure IOs
		degraded bool // the run must serve in degraded mode
	}{
		{"overload", func() *Sim { s := testSim(t, 42, 2.5, true); return s }, false, true},
		{"retries", func() *Sim { return retrySim(t, 11) }, true, false},
		// TestTokenBucketThrottles' starved bucket: throttle rejections.
		{"throttled", func() *Sim {
			s := testSim(t, 5, 2.0, false)
			s.SetTokenBucket(4*s.MeanServiceNs(), 8)
			return s
		}, false, false},
	} {
		s := cfg.sim()
		armTest(s)
		decodeBefore := s.alg.Costs().DecodingMisses
		r := s.Run()
		decodeGrowth := s.alg.Costs().DecodingMisses - decodeBefore
		m := r.Metrics
		if m == nil || len(m.Windows) == 0 {
			t.Fatalf("%s: no windows", cfg.name)
		}
		var adm, comp, rej, shed, tout, retries, failIOs, degraded, lat uint64
		for _, w := range m.Windows {
			adm += w.Admitted
			comp += w.Completed
			rej += w.Rejected
			shed += w.Shed
			tout += w.TimedOut
			retries += w.Retries
			failIOs += w.FailureIOs
			degraded += w.DegradedServed
			lat += w.Count
			if w.QueueDepth < 0 || w.QueueDepth > 128 {
				t.Errorf("%s: window %d queue depth %d outside [0, cap]", cfg.name, w.Index, w.QueueDepth)
			}
		}
		c := r.Counters
		if adm != c.Admitted || comp != c.Completed ||
			rej != c.RejectedQueue+c.RejectedThrottle || shed != c.Shed ||
			tout != c.TimedOutQueued+c.TimedOutServed || retries != c.Retries {
			t.Fatalf("%s: window sums diverge from run counters:\nwindows: adm=%d comp=%d rej=%d shed=%d tout=%d retries=%d\nrun: %+v",
				cfg.name, adm, comp, rej, shed, tout, retries, c)
		}
		if lat != c.Completed || lat != r.Latency.Count() {
			t.Fatalf("%s: window latency count %d != completed %d", cfg.name, lat, c.Completed)
		}
		if failIOs != decodeGrowth || (failIOs > 0) != cfg.failures {
			t.Fatalf("%s: windows count %d failure IOs, the simulator charged %d decoding misses (want failures: %v)",
				cfg.name, failIOs, decodeGrowth, cfg.failures)
		}
		if degraded != c.Degraded || (degraded > 0) != cfg.degraded {
			t.Fatalf("%s: windows count %d degraded attempts, run counted %d (want degraded: %v)",
				cfg.name, degraded, c.Degraded, cfg.degraded)
		}
		if m.SLO.Windows != len(m.Windows) {
			t.Fatalf("%s: SLO judged %d of %d windows", cfg.name, m.SLO.Windows, len(m.Windows))
		}
	}
}

// TestMetricsExemplarAttribution pins the causal latency split: for
// every exemplar whose attempt count fits the fixed timeline, queued +
// service + backoff time must equal its total latency exactly — virtual
// time has nowhere else to go.
func TestMetricsExemplarAttribution(t *testing.T) {
	for _, cfg := range []struct {
		name string
		sim  func() *Sim
	}{
		{"overload", func() *Sim { s := testSim(t, 42, 2.5, true); return s }},
		{"retries", func() *Sim { return retrySim(t, 11) }},
	} {
		s := cfg.sim()
		armTest(s)
		r := s.Run()
		if len(r.Metrics.Exemplars) == 0 {
			t.Fatalf("%s: no exemplars retained", cfg.name)
		}
		for i, ex := range r.Metrics.Exemplars {
			if i > 0 && ex.LatencyNs > r.Metrics.Exemplars[i-1].LatencyNs {
				t.Errorf("%s: exemplars not sorted slowest-first at %d", cfg.name, i)
			}
			if ex.Attempts > metrics.MaxAttemptRecs {
				continue
			}
			if got := ex.QueuedNs + ex.ServiceNs + ex.BackoffNs; got != ex.LatencyNs {
				t.Errorf("%s: exemplar seq=%d (%s, %d attempts): queued %d + service %d + backoff %d = %d != latency %d",
					cfg.name, ex.Seq, ex.Outcome, ex.Attempts,
					ex.QueuedNs, ex.ServiceNs, ex.BackoffNs, got, ex.LatencyNs)
			}
			switch ex.Outcome {
			case OutcomeCompleted, OutcomeTimedOutQueued, OutcomeTimedOutServed, OutcomeShed:
			default:
				t.Errorf("%s: exemplar seq=%d: unknown outcome %q", cfg.name, ex.Seq, ex.Outcome)
			}
		}
	}
}

// TestSegmentsShedDuringBackoff pins Segments' last tail on a hand-built
// exemplar: a request shed at retry time, after its one attempt and
// before it re-enqueued, spends the rest of its life in backoff.
func TestSegmentsShedDuringBackoff(t *testing.T) {
	ex := metrics.Exemplar{ArriveNs: 100, LatencyNs: 900, Outcome: OutcomeShed, Attempts: 1}
	ex.Timeline[0] = metrics.AttemptRec{EnqueueNs: 100, StartNs: 150, EndNs: 400}
	var got []Segment
	Segments(&ex, func(g Segment) { got = append(got, g) })
	want := []Segment{
		{Kind: SegmentQueued, StartNs: 100, EndNs: 150},
		{Kind: SegmentAttempt, Attempt: 1, StartNs: 150, EndNs: 400},
		{Kind: SegmentBackoff, StartNs: 400, EndNs: 1000},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("segments of a request shed during backoff:\n got  %+v\n want %+v", got, want)
	}
}

// TestMetricsOverloadZeroAlloc is the armed twin of
// TestServeOverloadBounded: with the collector running, the steady-state
// half of a 2.5× overload run still allocates (almost) nothing — the
// open window is a struct, the window histogram Resets in place, and
// the exemplar reservoir is fixed.
func TestMetricsOverloadZeroAlloc(t *testing.T) {
	s := testSim(t, 42, 2.5, true)
	armTest(s)
	steps := 0
	for s.Step() {
		steps++
		if steps == 2000 {
			break
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for s.Step() {
	}
	runtime.ReadMemStats(&after)
	r := s.Result()
	if err := r.Counters.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics.Windows) == 0 {
		t.Fatal("armed run closed no windows")
	}
	if d := after.Mallocs - before.Mallocs; d > 128 {
		t.Fatalf("armed steady-state run allocated %d objects, want ~0", d)
	}
}

// TestMetricsTSV smoke-tests the window dump writer over a real record.
func TestMetricsTSV(t *testing.T) {
	s := testSim(t, 7, 2.0, true)
	armTest(s)
	res := s.Run()
	rec := &SweepRecord{
		Table: "test", MetricsWindowMul: 64, SLOBudgetMul: 40, ExemplarK: 5,
		Points: []Point{PointFrom("hugepage(h=1)", 2.0, res)},
	}
	if !rec.HasMetrics() {
		t.Fatal("HasMetrics = false for an armed point")
	}
	var buf bytes.Buffer
	if err := WriteMetricsTSV(&buf, rec); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"alg\toffered_load\twindow", "# slo hugepage(h=1)", "# exemplar"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics TSV lacks %q:\n%s", want, out[:min(len(out), 600)])
		}
	}
	lines := strings.Count(out, "\n")
	if wins := len(res.Metrics.Windows); lines < wins+2 {
		t.Errorf("TSV has %d lines for %d windows", lines, wins)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
