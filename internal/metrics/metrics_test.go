package metrics

import (
	"encoding/json"
	"testing"
)

// TestWindowBoundaries pins the window math: an event at exactly a
// window edge closes the prior window and lands in the next one, and a
// clock jump over several edges closes every crossed window with the
// same gauge sample. The caller's tally is cumulative; each window
// reports its growth since the previous close.
func TestWindowBoundaries(t *testing.T) {
	c := New(Config{WidthNs: 100})
	c.Advance(0, Gauges{})
	c.Advance(99, Gauges{Tally: Tally{Admitted: 1}})                 // one admission in window 0
	c.Advance(100, Gauges{QueueDepth: 7, Tally: Tally{Admitted: 2}}) // closes window 0
	c.Advance(350, Gauges{QueueDepth: 3, Tally: Tally{Admitted: 3}}) // closes windows 1 and 2
	c.Finish(Gauges{QueueDepth: 1, Tally: Tally{Admitted: 4}})

	rec := c.Report()
	if len(rec.Windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(rec.Windows))
	}
	wantAdmit := []uint64{2, 1, 0, 1}
	wantDepth := []int{7, 3, 3, 1}
	for i, w := range rec.Windows {
		if w.Index != i || w.StartNs != int64(i)*100 {
			t.Errorf("window %d: index=%d start=%d", i, w.Index, w.StartNs)
		}
		if w.Admitted != wantAdmit[i] {
			t.Errorf("window %d: admitted = %d, want %d", i, w.Admitted, wantAdmit[i])
		}
		if w.QueueDepth != wantDepth[i] {
			t.Errorf("window %d: queue depth = %d, want %d", i, w.QueueDepth, wantDepth[i])
		}
	}
}

// TestTallyGrowth pins how windows read the cumulative tally, field by
// field: an Advance that closes several windows gives the first the
// growth since the last close and the others zero, and Finish gives the
// trailing window the growth up to the final tally.
func TestTallyGrowth(t *testing.T) {
	at := func(n uint64) Tally {
		return Tally{Admitted: 8 * n, Completed: 7 * n, Rejected: 6 * n, Shed: 5 * n,
			TimedOut: 4 * n, Retries: 3 * n, FailureIOs: 2 * n, DegradedServed: n}
	}
	c := New(Config{WidthNs: 100})
	c.Advance(50, Gauges{Tally: at(1)})  // window 0 stays open
	c.Advance(320, Gauges{Tally: at(3)}) // closes windows 0, 1 and 2
	c.Finish(Gauges{Tally: at(10)})      // closes window 3

	wins := c.Report().Windows
	want := []Tally{at(3), {}, {}, at(7)}
	if len(wins) != len(want) {
		t.Fatalf("windows = %d, want %d", len(wins), len(want))
	}
	for i, w := range wins {
		if w.Tally != want[i] {
			t.Errorf("window %d: tally %+v, want %+v", i, w.Tally, want[i])
		}
	}
}

// TestFinishIdempotent pins that Finish closes the trailing window
// exactly once.
func TestFinishIdempotent(t *testing.T) {
	c := New(Config{WidthNs: 100})
	c.Complete(10)
	c.Finish(Gauges{})
	c.Finish(Gauges{})
	c.Finish(Gauges{})
	if got := len(c.Report().Windows); got != 1 {
		t.Fatalf("windows after triple Finish = %d, want 1", got)
	}
}

// TestSLOAccounting pins the burn-rate and streak bookkeeping: empty
// windows never violate, and the longest streak tracks consecutive
// violating windows only.
func TestSLOAccounting(t *testing.T) {
	c := New(Config{WidthNs: 100, BudgetNs: 50})
	// Window 0: p99 below budget.
	c.Complete(10)
	c.Advance(100, Gauges{})
	// Windows 1, 2: violations (p99 above budget).
	c.Complete(500)
	c.Advance(200, Gauges{})
	c.Complete(900)
	c.Advance(300, Gauges{})
	// Window 3: empty — never a violation.
	c.Advance(400, Gauges{})
	// Window 4: violation again (streak resets to 1).
	c.Complete(800)
	c.Finish(Gauges{})

	rec := c.Report()
	s := rec.SLO
	if s.Windows != 5 || s.Violations != 3 || s.MaxStreak != 2 {
		t.Fatalf("SLO = %+v, want windows=5 violations=3 max_streak=2", s)
	}
	if s.Met(1, 20) {
		t.Errorf("Met(1/20) = true for 3/5 violations")
	}
	if !s.Met(3, 5) {
		t.Errorf("Met(3/5) = false for 3/5 violations")
	}
	if got := s.BurnRatePct(); got != 60 {
		t.Errorf("BurnRatePct = %g, want 60", got)
	}
	if !rec.Windows[3].Violation == false {
		t.Errorf("empty window marked violating")
	}
}

// TestExemplarReservoir pins the top-K selection: latency descending
// with admission order breaking ties, independent of offer order.
func TestExemplarReservoir(t *testing.T) {
	c := New(Config{WidthNs: 100, Exemplars: 3})
	offer := []Exemplar{
		{Seq: 1, LatencyNs: 50},
		{Seq: 2, LatencyNs: 900},
		{Seq: 3, LatencyNs: 100},
		{Seq: 4, LatencyNs: 100}, // tie with seq 3: earlier seq wins
		{Seq: 5, LatencyNs: 700},
		{Seq: 6, LatencyNs: 10},
	}
	for _, ex := range offer {
		c.ObserveTerminal(ex)
	}
	c.Finish(Gauges{})
	got := c.Report().Exemplars
	wantSeq := []uint64{2, 5, 3}
	if len(got) != len(wantSeq) {
		t.Fatalf("exemplars = %d, want %d", len(got), len(wantSeq))
	}
	for i, ex := range got {
		if ex.Seq != wantSeq[i] {
			t.Errorf("exemplar %d: seq = %d, want %d (got %+v)", i, ex.Seq, wantSeq[i], got)
		}
	}
}

// TestNilSafety pins that a nil collector ignores every call — the
// serving event loop makes them unconditionally.
func TestNilSafety(t *testing.T) {
	var c *C
	c.Advance(100, Gauges{})
	c.Complete(5)
	c.Governor(7, true)
	c.ObserveTerminal(Exemplar{})
	c.Finish(Gauges{})
	if rec := c.Report(); len(rec.Windows) != 0 {
		t.Fatalf("nil collector reported %d windows", len(rec.Windows))
	}
}

// TestRecordJSONStable pins that the serialized Record carries no
// attempt timelines (they are trace-only) and that the encoding is
// deterministic — the blob cache diffs bytes.
func TestRecordJSONStable(t *testing.T) {
	build := func() Record {
		c := New(Config{WidthNs: 100, BudgetNs: 50, Exemplars: 2})
		c.Complete(75)
		c.Governor(42, true)
		c.ObserveTerminal(Exemplar{Seq: 1, LatencyNs: 75, Outcome: "completed",
			Timeline: [MaxAttemptRecs]AttemptRec{{EnqueueNs: 1, StartNs: 2, EndNs: 76}}})
		c.Finish(Gauges{QueueDepth: 1, Tally: Tally{Admitted: 1, Completed: 1}})
		return c.Report()
	}
	a, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("non-deterministic encoding:\n%s\n%s", a, b)
	}
	var decoded Record
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Exemplars[0].Timeline != ([MaxAttemptRecs]AttemptRec{}) {
		t.Errorf("attempt timeline leaked into JSON: %s", a)
	}
}

// TestWindowJSONLayout pins a window's encoding, which the blob cache,
// the manifests and the cached serve points store: the embedded Tally's
// counts sit between the window's start and its gauges, in this order.
func TestWindowJSONLayout(t *testing.T) {
	c := New(Config{WidthNs: 100, BudgetNs: 50})
	c.Complete(75)
	c.Finish(Gauges{QueueDepth: 1, HeapLen: 2, Tokens: -1, Degraded: true, Tally: Tally{
		Admitted: 1, Completed: 1, Rejected: 1, Shed: 1, TimedOut: 1, Retries: 1, FailureIOs: 3, DegradedServed: 1}})
	got, err := json.Marshal(c.Report().Windows)
	if err != nil {
		t.Fatal(err)
	}
	want := `[{"index":0,"start_ns":0,"admitted":1,"completed":1,"rejected":1,"shed":1,"timed_out":1,"retries":1,"failure_ios":3,"degraded_served":1,"queue_depth":1,"heap_len":2,"tokens":-1,"degraded":true,"count":1,"p50_ns":75,"p99_ns":75,"max_ns":75,"violation":true}]`
	if string(got) != want {
		t.Fatalf("window encoding changed:\n got  %s\n want %s", got, want)
	}
}
