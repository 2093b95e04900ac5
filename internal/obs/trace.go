package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"addrxlat/internal/event"
	"addrxlat/internal/hist"
	"addrxlat/internal/metrics"
	"addrxlat/internal/serve"
	"addrxlat/internal/xtrace"
)

// Trace draws a run's execution timelines into an xtrace.Tracer from the
// event stream, and builds each row's straggler report (RowReport) from
// the same events. It is an event.Observer, safe for concurrent use;
// cmd/figures and cmd/atsim hand it to their Recorder (SetTrace), which
// forwards every event and collects the reports. Events without a stamp
// (At zero) are ignored.
//
// The timelines, per streamed row: "row R" (the row's span), "ring R"
// (the producer's wait-for-consumers spans and two counter tracks: the
// in-flight depth and the backpressure counts at each publish) and one
// "R | alg" per simulator worker (its lifetime, warmup and measured
// phase spans, and per chunk a wait-generation span, a wait-admission
// span when it waited on the Workers gate, and the chunk span). Each
// serve cell gets an "R | alg|load=L" timeline with one span, and, for a
// cell simulated in this run with its collector armed, the virtual-time
// threads of its window stream and exemplar requests. Marks (cancel,
// fault, quarantine, cache hit) are instants on one "events" timeline.
type Trace struct {
	tr *xtrace.Tracer

	mu     sync.Mutex
	marks  *xtrace.Thread
	rows   map[string]*traceRow
	served map[string]bool // row+"\x00"+cell of every serve cell simulated
}

// traceRow is the drawing and attribution state of one row until it
// ends. A serve table has no row or ring timeline.
type traceRow struct {
	streamed  bool
	row, ring *xtrace.Thread
	workers   []*traceWorker
}

// traceWorker is one (row, simulator) worker, or one serve cell. Stamps
// are on the tracer's clock; start and end stay zero for a serve cell,
// which has no lifetime span.
type traceWorker struct {
	alg                    string
	th                     *xtrace.Thread
	start, end             int64
	phase                  string
	phaseStart             int64
	accesses               uint64 // the last sample's Costs.Accesses in this phase
	blockedGen, blockedAdm int64  // ring and gate wait
	batch                  hist.H // AccessBatch times: count, sum and quantiles
}

// NewTrace returns a Trace drawing into tr.
func NewTrace(tr *xtrace.Tracer) *Trace {
	return &Trace{tr: tr, marks: tr.Thread("events"), rows: map[string]*traceRow{}, served: map[string]bool{}}
}

// Observe implements event.Observer.
func (t *Trace) Observe(e event.Event) { t.observe(e) }

// observe draws e and returns the straggler report of the row e ends (a
// KindRing event, or the KindServe event of a serve table), nil
// otherwise.
func (t *Trace) observe(e event.Event) *RowReport {
	if t == nil || e.At.IsZero() {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.tr.Stamp(e.At)
	switch e.Kind {
	case event.KindSample:
		t.chunk(e, at)
	case event.KindPublish:
		t.publish(e, at)
	case event.KindPhase:
		if e.Phase == event.PhaseServe {
			t.serveCell(e, at)
		}
	case event.KindRing:
		r := t.streamRow(e.Row)
		r.row.SpanAt(e.Row, xtrace.CatRow, at-int64(e.Elapsed), at)
		for _, w := range r.workers {
			w.th.SpanAt(w.phase, xtrace.CatPhase, w.phaseStart, w.end)
			w.th.SpanAt(w.alg, xtrace.CatWorker, w.start, w.end)
		}
		delete(t.rows, e.Row)
		rep := r.report(e.Row, e.Elapsed, e.RingWait)
		return &rep
	case event.KindServe:
		t.serveThreads(e.Row, e.Serve)
		r := t.rows[e.Row]
		if r == nil {
			return nil // every cell came from the result cache
		}
		delete(t.rows, e.Row)
		rep := r.report(e.Row, 0, 0)
		return &rep
	case event.KindMark:
		var args []xtrace.Arg
		if e.Alg != "" {
			args = append(args, xtrace.ArgStr("cell", e.Row+"|"+e.Alg))
		} else if e.Row != "" {
			args = append(args, xtrace.ArgStr("row", e.Row))
		}
		if e.Note != "" {
			args = append(args, xtrace.ArgStr(markNote[e.Name], e.Note))
		}
		t.marks.InstantAt(e.Name, at, args...)
	}
	return nil
}

// markNote names the argument that carries a mark's Note.
var markNote = map[string]string{
	event.MarkFault:      "point",
	event.MarkQuarantine: "reason",
	event.MarkCacheHit:   "key",
}

// rowFor returns the state of the named row, creating it.
func (t *Trace) rowFor(name string) *traceRow {
	r := t.rows[name]
	if r == nil {
		r = &traceRow{}
		t.rows[name] = r
	}
	return r
}

// streamRow returns a streamed row's state with its row and ring
// timelines, which come first in the trace's order.
func (t *Trace) streamRow(name string) *traceRow {
	r := t.rowFor(name)
	if !r.streamed {
		r.streamed = true
		r.row = t.tr.Thread("row " + name)
		r.ring = t.tr.Thread("ring " + name)
	}
	return r
}

// worker returns the row's worker for alg, creating it and its timeline.
func (t *Trace) worker(r *traceRow, row, alg string) *traceWorker {
	for _, w := range r.workers {
		if w.alg == alg {
			return w
		}
	}
	name := alg
	if row != "" {
		name = row + " | " + alg
	}
	w := &traceWorker{alg: alg, th: t.tr.Thread(name)}
	r.workers = append(r.workers, w)
	return w
}

// chunk draws one chunk sample. Its stage times tile the worker's life
// (see the row executor), so the waits and the chunk span are laid back
// to back from the ring wait's start to the sample's stamp.
func (t *Trace) chunk(e event.Event, at int64) {
	w := t.worker(t.streamRow(e.Row), e.Row, e.Alg)
	batchStart := at - int64(e.Batch)
	got := batchStart - int64(e.GateWait)
	ringStart := got - int64(e.RingWait)
	if w.batch.Count() == 0 {
		w.start, w.phase, w.phaseStart = ringStart, e.Phase, ringStart
	} else if e.Phase != w.phase {
		w.th.SpanAt(w.phase, xtrace.CatPhase, w.phaseStart, got)
		w.phase, w.phaseStart, w.accesses = e.Phase, got, 0
	}
	seq := xtrace.ArgInt("seq", int64(e.Seq))
	w.th.SpanAt(xtrace.WaitGeneration, xtrace.CatWait, ringStart, got, seq)
	if e.GateWait > 0 {
		w.th.SpanAt(xtrace.WaitAdmission, xtrace.CatWait, got, batchStart)
	}
	w.th.SpanAt(e.Phase, xtrace.CatChunk, batchStart, at, seq,
		xtrace.ArgInt("n", int64(e.Costs.Accesses-w.accesses)))
	w.accesses, w.end = e.Costs.Accesses, at
	w.blockedGen += int64(e.RingWait)
	w.blockedAdm += int64(e.GateWait)
	w.batch.Observe(int64(e.Batch))
}

// publish draws one ring publish: the producer's wait for a free slot,
// which ended when it began generating the chunk, and the counters.
func (t *Trace) publish(e event.Event, at int64) {
	ring := t.streamRow(e.Row).ring
	if e.RingWait > 0 {
		filled := at - int64(e.Batch)
		ring.SpanAt(xtrace.WaitConsumers, xtrace.CatWait, filled-int64(e.RingWait), filled,
			xtrace.ArgInt("seq", int64(e.Seq)))
	}
	ring.CounterAt("ring", at, xtrace.ArgInt("in_flight", int64(e.Ring.InFlight)))
	ring.CounterAt("ring backpressure", at,
		xtrace.ArgInt("producer_waits", int64(e.Ring.ProducerWaits)),
		xtrace.ArgInt("consumer_waits", int64(e.Ring.ConsumerWaits)))
}

// serveCell draws one simulated serve cell as a one-span worker.
func (t *Trace) serveCell(e event.Event, at int64) {
	w := t.worker(t.rowFor(e.Row), e.Row, e.Alg)
	alg, load, _ := strings.Cut(e.Alg, "|load=")
	w.th.SpanAt("serve load="+load, xtrace.CatChunk, at-int64(e.Elapsed), at, xtrace.ArgStr("alg", alg))
	w.batch.Observe(int64(e.Elapsed))
	t.served[e.Row+"\x00"+e.Alg] = true
}

// serveThreads draws the virtual-time threads of every point of a serve
// sweep that this run simulated with its collector armed: one cell
// thread with the per-window gauge counter track, per-window shed
// instants and governor trip/clear instants, and one thread per
// exemplar with its request span tree. A point answered from the result
// cache is skipped: its exemplars carry no attempt timelines.
func (t *Trace) serveThreads(row string, rec *serve.SweepRecord) {
	for i := range rec.Points {
		p := &rec.Points[i]
		cell := fmt.Sprintf("%s|load=%g", p.Alg, p.Load)
		if p.Metrics == nil || !t.served[row+"\x00"+cell] {
			continue
		}
		delete(t.served, row+"\x00"+cell)
		label := row + " " + cell
		m := p.Metrics
		th := t.tr.Thread("serve " + label)
		for j := range m.Windows {
			w := &m.Windows[j]
			end := w.StartNs + m.WidthNs
			th.CounterAt("serve state "+label, end,
				xtrace.ArgInt("queue_depth", int64(w.QueueDepth)),
				xtrace.ArgInt("heap_len", int64(w.HeapLen)),
				xtrace.ArgInt("tokens", w.Tokens))
			if w.Shed > 0 {
				th.InstantAt(xtrace.InstantShed, end, xtrace.ArgInt("count", int64(w.Shed)))
			}
		}
		for _, g := range m.Governor {
			name := xtrace.InstantGovClear
			if g.Trip {
				name = xtrace.InstantGovTrip
			}
			th.InstantAt(name, g.AtNs)
		}
		for j := range m.Exemplars {
			t.exemplar(label, &m.Exemplars[j])
		}
	}
}

// exemplar draws one exemplar's lifecycle on its own thread: the request
// span from arrival to its terminal outcome, and inside it one span per
// segment of its attempt timeline (serve.Segments).
func (t *Trace) exemplar(label string, ex *metrics.Exemplar) {
	th := t.tr.Thread(fmt.Sprintf("serve req#%d %s", ex.Seq, label))
	if th == nil {
		return
	}
	deg := int64(0)
	if ex.Degraded {
		deg = 1
	}
	th.SpanAt("request", xtrace.CatServeRequest, ex.ArriveNs, ex.ArriveNs+ex.LatencyNs,
		xtrace.ArgStr("outcome", ex.Outcome),
		xtrace.ArgInt("attempts", int64(ex.Attempts)),
		xtrace.ArgInt("failure_ios", int64(ex.FailureIOs)),
		xtrace.ArgInt("degraded", deg))
	serve.Segments(ex, func(g serve.Segment) {
		switch g.Kind {
		case serve.SegmentQueued:
			th.SpanAt("queued", xtrace.CatServeQueued, g.StartNs, g.EndNs)
		case serve.SegmentAttempt:
			th.SpanAt(fmt.Sprintf("attempt %d", g.Attempt), xtrace.CatServeAttempt, g.StartNs, g.EndNs)
		case serve.SegmentBackoff:
			th.SpanAt("backoff", xtrace.CatServeBackoff, g.StartNs, g.EndNs)
		}
	})
}

// report builds the row's straggler report. wall is the row's wall time
// (zero for a serve table: its longest cell stands in).
func (r *traceRow) report(row string, wall, producerBlocked time.Duration) RowReport {
	rep := RowReport{Row: row, WallSeconds: wall.Seconds(), ProducerBlockedSeconds: producerBlocked.Seconds()}
	var straggler *traceWorker
	for _, w := range r.workers {
		wr := WorkerReport{
			Alg:                      w.alg,
			Chunks:                   int(w.batch.Count()),
			P50Micros:                micros(w.batch.Quantile(0.50)),
			P99Micros:                micros(w.batch.Quantile(0.99)),
			P999Micros:               micros(w.batch.Quantile(0.999)),
			MaxMicros:                micros(w.batch.Max()),
			BusySeconds:              seconds(w.batch.Sum()),
			BlockedGenerationSeconds: seconds(w.blockedGen),
			BlockedAdmissionSeconds:  seconds(w.blockedAdm),
			WallSeconds:              seconds(w.end - w.start),
		}
		rep.Workers = append(rep.Workers, wr)
		if wall == 0 {
			rep.WallSeconds = max(rep.WallSeconds, wr.BusySeconds+wr.Blocked())
		}
		if straggler == nil || w.end > straggler.end ||
			(w.end == straggler.end && w.batch.Sum() > straggler.batch.Sum()) {
			straggler = w
		}
	}
	if straggler != nil {
		rep.Straggler = straggler.alg
		rep.Bottleneck = bottleneckOf(straggler)
	}
	return rep
}

// bottleneckOf classifies where the straggler's time went: the largest of
// its three attributed components.
func bottleneckOf(w *traceWorker) string {
	busy, gen, adm := w.batch.Sum(), w.blockedGen, w.blockedAdm
	switch {
	case busy >= gen && busy >= adm:
		return "simulation"
	case gen >= adm:
		return "generation"
	default:
		return "admission"
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func micros(ns int64) float64 { return float64(ns) / 1e3 }
