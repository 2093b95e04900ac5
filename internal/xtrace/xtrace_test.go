package xtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// buildTrace records a small but structurally complete trace: sweep and
// experiment spans on one thread, a row with two workers whose phase
// spans contain chunk and wait spans, ring counters, and instants.
func buildTrace() *Tracer {
	tr := New()
	events := tr.Thread("events")
	sweep := tr.Thread("sweep")
	row := tr.Thread("row bimodal")
	ring := tr.Thread("ring bimodal")

	sweepStart := tr.Now()
	expStart := tr.Now()
	rowStart := tr.Now()

	for _, alg := range []string{"hugepage(h=1)", "decoupled"} {
		w := tr.Thread("bimodal | " + alg)
		wStart := tr.Now()
		phaseStart := tr.Now()
		for i := 0; i < 3; i++ {
			gs := tr.Now()
			w.Span(WaitGeneration, CatWait, gs, ArgInt("seq", int64(i)))
			cs := tr.Now()
			spin()
			w.Span("warmup", CatChunk, cs, ArgInt("seq", int64(i)), ArgInt("n", 65536))
		}
		w.Span("warmup", CatPhase, phaseStart)
		phaseStart = tr.Now()
		for i := 3; i < 6; i++ {
			as := tr.Now()
			w.Span(WaitAdmission, CatWait, as)
			cs := tr.Now()
			spin()
			w.Span("measured", CatChunk, cs, ArgInt("seq", int64(i)))
		}
		w.Span("measured", CatPhase, phaseStart)
		w.Span(alg, CatWorker, wStart)
	}
	ring.CounterAt("ring", tr.Now(), ArgInt("in_flight", 3))
	ws := tr.Now()
	ring.Span(WaitConsumers, CatWait, ws)
	events.InstantAt("resultcache hit", tr.Now(), ArgStr("key", "cell|..."))
	events.InstantAt("cell quarantined", tr.Now(), ArgStr("cell", "bimodal|hugepage(h=4)"))

	row.Span("bimodal", CatRow, rowStart)
	sweep.Span("f1a", CatExperiment, expStart)
	sweep.Span("figures", CatSweep, sweepStart)
	return tr
}

// spin burns a little real time so spans have non-zero durations.
func spin() {
	acc := 0
	for i := 0; i < 20000; i++ {
		acc += i * i
	}
	_ = acc
}

// TestExportValidates: the exported JSON parses, matches the trace-event
// schema, and its spans nest per thread.
func TestExportValidates(t *testing.T) {
	tr := buildTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails validation: %v", err)
	}
	// 2 workers × (6 chunk + 6 wait + 2 phase + 1 worker) + row + ring
	// wait + experiment + sweep = 34.
	if spans != 34 {
		t.Fatalf("validated %d spans, want 34", spans)
	}
	// The document shape viewers expect.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("no traceEvents key")
	}
	s := buf.String()
	for _, want := range []string{`"ph":"M"`, `"ph":"X"`, `"ph":"i"`, `"ph":"C"`, "thread_name", "process_name"} {
		if !strings.Contains(s, want) {
			t.Errorf("export missing %s", want)
		}
	}
}

// TestValidateRejects: the validator catches malformed documents and
// non-nesting spans.
func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"not json":     `{"traceEvents": [`,
		"empty":        `{"traceEvents": []}`,
		"missing name": `{"traceEvents": [{"ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"bad phase":    `{"traceEvents": [{"name":"a","ph":"Z","ts":1,"pid":1,"tid":1}]}`,
		"negative dur": `{"traceEvents": [{"name":"a","ph":"X","ts":1,"dur":-2,"pid":1,"tid":1}]}`,
		"overlap": `{"traceEvents": [
			{"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
			{"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}]}`,
	}
	for name, doc := range cases {
		if _, err := Validate([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted a malformed trace", name)
		}
	}
	// Disjoint and contained spans pass.
	ok := `{"traceEvents": [
		{"name":"outer","ph":"X","ts":0,"dur":20,"pid":1,"tid":1},
		{"name":"inner","ph":"X","ts":2,"dur":5,"pid":1,"tid":1},
		{"name":"next","ph":"X","ts":8,"dur":5,"pid":1,"tid":1},
		{"name":"other thread","ph":"X","ts":3,"dur":100,"pid":1,"tid":2}]}`
	if n, err := Validate([]byte(ok)); err != nil || n != 4 {
		t.Fatalf("well-formed trace rejected: n=%d err=%v", n, err)
	}
}

// TestValidateServeSchema: the request-lifecycle checks — queued/
// attempt/backoff spans must live inside a serve-request span on their
// thread, and governor trip/clear instants alternate starting with a
// trip (a trailing trip is legal: the run ended degraded).
func TestValidateServeSchema(t *testing.T) {
	// A complete request lifecycle with a retry, plus a tripped-then-
	// cleared-then-tripped-again governor: all legal.
	ok := `{"traceEvents": [
		{"name":"req#7","cat":"serve-request","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
		{"name":"queued","cat":"serve-queued","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
		{"name":"attempt 1","cat":"serve-attempt","ph":"X","ts":10,"dur":30,"pid":1,"tid":1},
		{"name":"backoff","cat":"serve-backoff","ph":"X","ts":40,"dur":20,"pid":1,"tid":1},
		{"name":"attempt 2","cat":"serve-attempt","ph":"X","ts":60,"dur":40,"pid":1,"tid":1},
		{"name":"governor trip","ph":"i","ts":5,"pid":1,"tid":2},
		{"name":"governor clear","ph":"i","ts":50,"pid":1,"tid":2},
		{"name":"governor trip","ph":"i","ts":90,"pid":1,"tid":2}]}`
	if n, err := Validate([]byte(ok)); err != nil || n != 5 {
		t.Fatalf("legal serve trace rejected: n=%d err=%v", n, err)
	}

	bad := map[string]string{
		// An attempt span with no enclosing request on its thread.
		"orphan attempt": `{"traceEvents": [
			{"name":"attempt 1","cat":"serve-attempt","ph":"X","ts":10,"dur":30,"pid":1,"tid":1}]}`,
		// A queued span poking out past the end of its request.
		"queued escapes request": `{"traceEvents": [
			{"name":"req#1","cat":"serve-request","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
			{"name":"queued","cat":"serve-queued","ph":"X","ts":90,"dur":30,"pid":1,"tid":1}]}`,
		// Governor cleared before it ever tripped.
		"clear before trip": `{"traceEvents": [
			{"name":"governor clear","ph":"i","ts":5,"pid":1,"tid":1},
			{"name":"governor trip","ph":"i","ts":10,"pid":1,"tid":1}]}`,
		// Two trips in a row.
		"double trip": `{"traceEvents": [
			{"name":"governor trip","ph":"i","ts":5,"pid":1,"tid":1},
			{"name":"governor trip","ph":"i","ts":10,"pid":1,"tid":1}]}`,
	}
	for name, doc := range bad {
		if _, err := Validate([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted an illegal serve trace", name)
		}
	}
	// Requests on different threads don't contain each other's children.
	crossThread := `{"traceEvents": [
		{"name":"req#1","cat":"serve-request","ph":"X","ts":0,"dur":100,"pid":1,"tid":1},
		{"name":"queued","cat":"serve-queued","ph":"X","ts":10,"dur":10,"pid":1,"tid":2}]}`
	if _, err := Validate([]byte(crossThread)); err == nil {
		t.Error("cross-thread containment accepted")
	}
}

// TestInstantCounterAt: virtual-time stamped events carry the given
// timestamp (clamped at zero), and nil threads stay inert.
func TestInstantCounterAt(t *testing.T) {
	tr := New()
	th := tr.Thread("virtual")
	th.InstantAt(InstantShed, 12345, ArgInt("count", 3))
	th.CounterAt("serve state", 67890, ArgInt("queue_depth", 7))
	th.InstantAt("early", -5)
	evs := th.events
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].TS != 12345 || evs[0].Ph != 'i' {
		t.Errorf("InstantAt stamp = %d ph=%c", evs[0].TS, evs[0].Ph)
	}
	if evs[1].TS != 67890 || evs[1].Ph != 'C' {
		t.Errorf("CounterAt stamp = %d ph=%c", evs[1].TS, evs[1].Ph)
	}
	if evs[2].TS != 0 {
		t.Errorf("negative stamp not clamped: %d", evs[2].TS)
	}
	var nilTh *Thread
	nilTh.InstantAt("i", 1)
	nilTh.CounterAt("c", 1, ArgInt("v", 1))
}

// TestNilSafety: a nil tracer and nil threads ignore every call, so
// disarmed instrumentation costs a nil check.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Now() != 0 || tr.Stamp(time.Now()) != 0 {
		t.Fatal("nil tracer must be inert")
	}
	var th *Thread
	th.Span("s", CatChunk, 0)
	th.SpanAt("s", CatChunk, 0, 1)
	th.InstantAt("i", 1)
	th.CounterAt("c", 1, ArgInt("v", 1))
	if tr.Thread("t") != nil {
		t.Fatal("nil tracer handed out threads")
	}
}

// TestStamp: a wall time converts to nanoseconds since the tracer
// started, and a time before the start clamps to zero.
func TestStamp(t *testing.T) {
	before := time.Now()
	tr := New()
	at := tr.start.Add(1500 * time.Microsecond)
	if got := tr.Stamp(at); got != 1_500_000 {
		t.Fatalf("Stamp = %d, want 1500000", got)
	}
	if got := tr.Stamp(before); got != 0 {
		t.Fatalf("Stamp before the start = %d, want 0", got)
	}
}

// TestThreadCap: beyond maxThreads the tracer degrades by dropping
// threads (nil), never by unbounded growth.
func TestThreadCap(t *testing.T) {
	tr := New()
	var got *Thread
	for i := 0; i < maxThreads+10; i++ {
		got = tr.Thread("r | a")
	}
	if got != nil {
		t.Fatal("thread cap not enforced")
	}
	threads, _, dropped := tr.Stats()
	if threads != maxThreads || dropped != 10 {
		t.Fatalf("threads=%d dropped=%d, want %d/10", threads, dropped, maxThreads)
	}
}
