package obs

import (
	"strings"
	"testing"

	"addrxlat/internal/event"
)

// explained is an event.KindSample event carrying attribution counters
// and, when g is non-nil, gauges.
func explained(row, phase, alg string, c Counters, g *Gauges) event.Event {
	return event.Event{Kind: event.KindSample, Row: row, Phase: phase, Alg: alg, Explain: &c, Gauges: g}
}

// TestRecorderExplain: an attributed sample stores the latest snapshot
// per series,
// tracks the peak bucket max load across samples, sums totals across
// series, and renders the TSV with the bound-monitor columns.
func TestRecorderExplain(t *testing.T) {
	r := NewRecorder(0) // interval 0: curve sampling off, explain still records
	if r.HasExplain() {
		t.Fatal("fresh recorder claims explain data")
	}

	var c Counters
	c.DemandIO()
	c.DemandIO()
	c.TLBMiss(7)
	c.TLBMiss(7) // second miss on the same key: capacity
	g := Gauges{
		ResidentPages: 10, RAMPages: 20, Utilization: 0.5,
		HasLoads: true, Buckets: 4, MaxLoad: 5, AvgLoad: 2.5, Theorem2Bound: 9.0,
	}
	r.Observe(explained("rowA", "measured", "alg1", c.Snapshot(), &g))

	// A later, calmer sample: max load dropped, but the peak must persist.
	g.MaxLoad = 3
	c.DemandIO()
	r.Observe(explained("rowA", "measured", "alg1", c.Snapshot(), &g))
	r.Observe(explained("rowA", "warmup", "alg2", c.Snapshot(), nil))

	if !r.HasExplain() {
		t.Fatal("explain data not recorded")
	}
	snap := r.ExplainSnapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d explain series, want 2", len(snap))
	}
	// Warmup sorts before measured.
	if snap[0].Phase != "warmup" || snap[1].Phase != "measured" {
		t.Fatalf("bad phase order: %s, %s", snap[0].Phase, snap[1].Phase)
	}
	m := snap[1]
	if m.Counters.IODemand != 3 {
		t.Errorf("latest snapshot wins: IODemand = %d, want 3", m.Counters.IODemand)
	}
	if m.Counters.TLBCompulsory != 1 || m.Counters.TLBCapacity != 1 {
		t.Errorf("TLB split = %d compulsory / %d capacity, want 1/1",
			m.Counters.TLBCompulsory, m.Counters.TLBCapacity)
	}
	if m.PeakMaxLoad != 5 {
		t.Errorf("peak max load = %d, want 5 (transient spike must persist)", m.PeakMaxLoad)
	}
	if m.Gauges == nil || m.Gauges.MaxLoad != 3 {
		t.Errorf("latest gauges not stored")
	}

	tot := r.ExplainTotals()
	if tot.IODemand != 6 { // 3 (measured) + 3 (warmup series holds the same snapshot)
		t.Errorf("totals IODemand = %d, want 6", tot.IODemand)
	}

	var sb strings.Builder
	if err := r.WriteExplainTSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d TSV lines, want header + 2 rows:\n%s", len(lines), out)
	}
	header := strings.Split(lines[0], "\t")
	for _, want := range []string{"io_demand", "tlb_compulsory", "t2_bound", "bound_ok", "peak_max_load"} {
		found := false
		for _, h := range header {
			if h == want {
				found = true
			}
		}
		if !found {
			t.Errorf("TSV header missing column %q", want)
		}
	}
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, "\t")); got != len(header) {
			t.Errorf("row has %d cells, header has %d: %s", got, len(header), line)
		}
	}
	// rowA's measured row: peak 5 ≤ bound 9.0 → bound_ok yes.
	if !strings.Contains(out, "yes") {
		t.Errorf("bound monitor column missing:\n%s", out)
	}

	var jb strings.Builder
	if err := r.WriteExplainJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jb.String(), `"io_demand": 3`) {
		t.Errorf("JSON missing io_demand:\n%s", jb.String())
	}
}

// TestRecorderExplainNil: every explain method must be a safe no-op on a
// nil Recorder (the PR-3 nil-sink contract).
func TestRecorderExplainNil(t *testing.T) {
	var r *Recorder
	r.Observe(explained("r", "p", "a", Counters{}, &Gauges{}))
	if r.HasExplain() || r.ExplainSnapshot() != nil {
		t.Fatal("nil recorder recorded something")
	}
	_ = r.ExplainTotals()
}
