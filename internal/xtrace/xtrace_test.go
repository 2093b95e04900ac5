package xtrace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// buildTrace records a small but structurally complete trace: sweep and
// experiment spans on thread 0, a row with two workers whose phase spans
// contain chunk and wait spans, ring counters, and shared instants.
func buildTrace() *Tracer {
	tr := New()
	tr.SetScope("f1a")
	sweep := tr.Thread("sweep")
	row := tr.RowThread("bimodal")
	ring := tr.Thread("ring bimodal")
	ring.row = "bimodal" // as the executor labels it via rowThread helpers

	sweepStart := tr.Now()
	expStart := tr.Now()
	rowStart := tr.Now()

	for _, alg := range []string{"hugepage(h=1)", "decoupled"} {
		w := tr.Worker("bimodal", alg)
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
	ring.Counter("ring", ArgInt("in_flight", 3))
	ws := tr.Now()
	ring.Span(WaitConsumers, CatWait, ws)
	tr.Instant(InstantCacheHit, ArgStr("key", "cell|..."))
	tr.Instant(InstantQuarantine, ArgStr("cell", "bimodal|hugepage(h=4)"))

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

// TestAnalyze: the straggler report aggregates chunk/wait/worker spans by
// (row, alg), names the worker that finished last as the straggler, and
// carries the ring producer's blocked time.
func TestAnalyze(t *testing.T) {
	tr := New()
	tr.SetScope("x")
	row := tr.RowThread("r")
	rs := tr.Now()

	// Worker "fast": little busy time, lots of generation wait.
	fast := tr.Worker("r", "fast")
	fs := tr.Now()
	fast.SpanAt("measured", CatChunk, fs, fs+1_000_000)
	fast.SpanAt(WaitGeneration, CatWait, fs+1_000_000, fs+9_000_000)
	fast.SpanAt("fast", CatWorker, fs, fs+10_000_000)

	// Worker "slow": dominated by busy time.
	slow := tr.Worker("r", "slow")
	ss := tr.Now()
	slow.SpanAt("measured", CatChunk, ss, ss+4_000_000)
	slow.SpanAt("measured", CatChunk, ss+4_000_000, ss+9_000_000)
	slow.SpanAt(WaitAdmission, CatWait, ss+9_000_000, ss+9_500_000)
	slow.SpanAt("slow", CatWorker, ss, ss+10_000_000)

	row.SpanAt("r", CatRow, rs, rs+10_500_000)

	reps := tr.Analyze()
	if len(reps) != 1 {
		t.Fatalf("got %d row reports, want 1", len(reps))
	}
	r := reps[0]
	if r.Experiment != "x" || r.Row != "r" {
		t.Fatalf("report identity = %q/%q", r.Experiment, r.Row)
	}
	if r.Straggler != "slow" || r.Bottleneck != "simulation" {
		t.Fatalf("straggler/bottleneck = %q/%q, want slow/simulation", r.Straggler, r.Bottleneck)
	}
	if got := r.WallSeconds; got < 0.0104 || got > 0.0106 {
		t.Fatalf("row wall = %v, want 0.0105", got)
	}
	if len(r.Workers) != 2 {
		t.Fatalf("got %d workers", len(r.Workers))
	}
	byAlg := map[string]WorkerReport{}
	for _, w := range r.Workers {
		byAlg[w.Alg] = w
	}
	if w := byAlg["fast"]; w.Chunks != 1 || w.BlockedGenerationSeconds < 0.0079 || w.BusySeconds > 0.0011 {
		t.Fatalf("fast worker attribution off: %+v", w)
	}
	if w := byAlg["slow"]; w.Chunks != 2 || w.BusySeconds < 0.0089 || w.BlockedAdmissionSeconds < 0.00049 {
		t.Fatalf("slow worker attribution off: %+v", w)
	}
	// busy+blocked accounts for each worker's wall within 1%.
	for _, w := range r.Workers {
		acc := w.BusySeconds + w.Blocked()
		if diff := w.WallSeconds - acc; diff < 0 || diff > 0.01*w.WallSeconds+0.0011 {
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
}

// TestAnalyzeStragglerEndsLast: the straggler is the worker whose
// lifetime span ends last even when another worker was busier — with an
// admission gate the busiest worker can finish first, and the row's wall
// time ends with the last one. Workers without lifetime spans (the
// materialized runners) tie, and the busier one is named.
func TestAnalyzeStragglerEndsLast(t *testing.T) {
	tr := New()
	start := tr.Now()
	busy := tr.Worker("r", "busy")
	busy.SpanAt("measured", CatChunk, start, start+8_000_000)
	busy.SpanAt("busy", CatWorker, start, start+8_000_000)
	late := tr.Worker("r", "late")
	late.SpanAt(WaitAdmission, CatWait, start, start+6_000_000)
	late.SpanAt("measured", CatChunk, start+6_000_000, start+10_000_000)
	late.SpanAt("late", CatWorker, start, start+10_000_000)

	light := tr.Worker("", "light")
	light.SpanAt("measured", CatChunk, start, start+1_000_000)
	heavy := tr.Worker("", "heavy")
	heavy.SpanAt("measured", CatChunk, start, start+3_000_000)

	reps := tr.Analyze()
	if len(reps) != 2 {
		t.Fatalf("got %d row reports, want 2", len(reps))
	}
	if r := reps[0]; r.Straggler != "late" || r.Bottleneck != "admission" {
		t.Errorf("row r: straggler/bottleneck = %q/%q, want late/admission", r.Straggler, r.Bottleneck)
	}
	if r := reps[1]; r.Straggler != "heavy" {
		t.Errorf("materialized row: straggler = %q, want heavy", r.Straggler)
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
	evs := th.Events()
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
	tr.SetScope("x")
	tr.Instant("i")
	if tr.Now() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	var th *Thread
	th.Span("s", CatChunk, 0)
	th.SpanAt("s", CatChunk, 0, 1)
	th.Instant("i")
	th.Counter("c", ArgInt("v", 1))
	if th.Events() != nil {
		t.Fatal("nil thread recorded events")
	}
	if tr.Thread("t") != nil || tr.Worker("r", "a") != nil || tr.RowThread("r") != nil {
		t.Fatal("nil tracer handed out threads")
	}
	if got := tr.Analyze(); got != nil {
		t.Fatal("nil tracer analyzed something")
	}
}

// TestInstallUninstall: the active tracer is swapped atomically and
// Enabled reflects it.
func TestInstallUninstall(t *testing.T) {
	if Enabled() {
		t.Fatal("tracer already installed")
	}
	tr := New()
	Install(tr)
	defer Install(nil)
	if Active() != tr || !Enabled() {
		t.Fatal("Install did not take")
	}
	Install(nil)
	if Active() != nil || Enabled() {
		t.Fatal("uninstall did not take")
	}
}

// TestThreadCap: beyond maxThreads the tracer degrades by dropping
// threads (nil), never by unbounded growth.
func TestThreadCap(t *testing.T) {
	tr := New()
	var got *Thread
	for i := 0; i < maxThreads+10; i++ {
		got = tr.Worker("r", "a")
	}
	if got != nil {
		t.Fatal("thread cap not enforced")
	}
	threads, _, dropped := tr.Stats()
	if threads != maxThreads || dropped != 11 {
		t.Fatalf("threads=%d dropped=%d, want %d/11", threads, dropped, maxThreads)
	}
}
