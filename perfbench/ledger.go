package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"addrxlat/internal/xtrace"
)

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailQuantile picks the highest of p99.9, p99 and p90 that still has at
// least ten samples beyond it, so a printed tail is never one outlier.
func tailQuantile(n int) (q float64, label string, ok bool) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}} {
		if float64(n)*(1-c.q) >= 10-1e-9 {
			return c.q, c.label, true
		}
	}
	return 0, "", false
}

// describe formats a sample as its median and tail with the count.
func describe(xs []float64, what string) string {
	s := fmt.Sprintf("%d %s, median %.4g", len(xs), what, median(xs))
	if q, label, ok := tailQuantile(len(xs)); ok {
		s += fmt.Sprintf(", %s %.4g", label, quantile(xs, q))
	}
	return s
}

// clockBase anchors nowNS. time.Since reads only the monotonic clock, one
// vDSO call, which is what per-call timing needs.
var clockBase = time.Now()

func nowNS() int64 { return int64(time.Since(clockBase)) }

// clockCost measures one clock read in ns: the median over batches of
// back-to-back reads. Per-call timings subtract it once per timed
// interval, since each interval's two stamps together pay one read.
func clockCost() float64 {
	const batch = 1000
	var per []float64
	for b := 0; b < 51; b++ {
		start := nowNS()
		for i := 0; i < batch; i++ {
			nowNS()
		}
		per = append(per, float64(nowNS()-start)/batch)
	}
	return median(per)
}

// series is one layer's timing ledger: total time and calls, plus the
// per-chunk rate so the summary can print a median and a tail.
type series struct {
	name     string // span name of the call, e.g. core.Scheme.Lookup
	unit     string // what a call is: "access" or "call" or "event"
	ns       float64
	calls    int64
	perChunk []float64 // ns per call, one value per chunk with calls
}

// add books one chunk: elapsedNS (already less the clock reads its
// intervals paid) over calls.
func (s *series) add(elapsedNS float64, calls int64) {
	if calls <= 0 {
		return
	}
	s.ns += elapsedNS
	s.calls += calls
	s.perChunk = append(s.perChunk, elapsedNS/float64(calls))
}

// rate is the mean ns per call over all chunks (0 when never called):
// total time over total calls, so rates weighted by calls add up to the
// ledger, and a layer called a few times per chunk still gets a stable
// figure. The per-chunk median and tail are printed beside it.
func (s *series) rate() float64 {
	if s.calls == 0 {
		return 0
	}
	return s.ns / float64(s.calls)
}

func (s *series) seconds() float64 { return s.ns / 1e9 }

// ledger is a workload's set of per-layer series, in print order.
type ledger struct{ all []*series }

func (l *ledger) series(name, unit string) *series {
	s := &series{name: name, unit: unit}
	l.all = append(l.all, s)
	return s
}

// printLayerSummary prints every per-chunk timing with its median, tail
// and chunk count, then every per-layer metric.
func (h *harness) printLayerSummary() {
	fmt.Fprintf(h.out, "clock read: %.2f ns (subtracted once per timed interval)\n", h.clockNS)
	if h.led != nil {
		for _, s := range h.led.all {
			if len(s.perChunk) == 0 {
				continue
			}
			line := fmt.Sprintf("layer %-34s chunks=%-6d calls=%-10d median=%.2f ns/%s", s.name, len(s.perChunk), s.calls, median(s.perChunk), s.unit)
			if q, label, ok := tailQuantile(len(s.perChunk)); ok {
				line += fmt.Sprintf(" %s=%.2f", label, quantile(s.perChunk, q))
			}
			line += fmt.Sprintf(" mean=%.2f total=%.4fs", s.rate(), s.seconds())
			fmt.Fprintln(h.out, line)
		}
	}
	for _, d := range perLayer {
		fmt.Fprintf(h.out, "%-30s %14.6g %s\n", d.name, h.layer[d.name], d.unit)
	}
}

// spanRec records the harness's own spans around its calls into the
// layers. It writes into an xtrace.Tracer that is never installed, so the
// program's internal trace hooks stay disarmed and the program runs
// exactly as in an untraced round. Every span carries its id, its parent
// span's id and the round it belongs to (0 for replays).
type spanRec struct {
	tr     *xtrace.Tracer
	th     *xtrace.Thread
	layers map[string]*xtrace.Thread // aggregate timelines, by layer
	round  int64
	ids    int64
	open   []openSpan
}

type openSpan struct{ id, start int64 }

const spanCat = "perfbench"

func newSpanRec() *spanRec {
	tr := xtrace.New()
	return &spanRec{tr: tr, th: tr.Thread("perfbench harness"), layers: map[string]*xtrace.Thread{}}
}

// now is the span clock, nowNS (nil-safe: 0 when not tracing). Spans
// carry nowNS stamps throughout, so per-call timings and span stamps
// share one clock.
func (r *spanRec) now() int64 {
	if r == nil {
		return 0
	}
	return nowNS()
}

// begin opens a span starting now and returns its start stamp.
func (r *spanRec) begin() int64 {
	if r == nil {
		return 0
	}
	r.ids++
	start := nowNS()
	r.open = append(r.open, openSpan{r.ids, start})
	return start
}

// end closes the innermost open span under name and returns its length.
func (r *spanRec) end(name string, args ...xtrace.Arg) int64 {
	if r == nil {
		return 0
	}
	o := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	end := nowNS()
	r.emitOn(r.th, name, spanCat, o.id, r.parent(), o.start, end, args)
	return end - o.start
}

// span records a closed child of the innermost open span from explicit
// stamps taken with now, and returns its id.
func (r *spanRec) span(name string, start, end int64, args ...xtrace.Arg) int64 {
	if r == nil {
		return 0
	}
	r.ids++
	r.emitOn(r.th, name, spanCat, r.ids, r.parent(), start, end, args)
	return r.ids
}

// parent is the id of the innermost open span (0 at top level).
func (r *spanRec) parent() int64 {
	if len(r.open) == 0 {
		return 0
	}
	return r.open[len(r.open)-1].id
}

// aggregate records a layer's time summed over one chunk: calls too
// short to span one by one (10–200 ns) are booked per chunk instead.
// Each layer gets its own timeline, where the record starts at start and
// lasts the summed time, at most limit, so one chunk's record never
// overlaps the next chunk's. Category "aggregate" marks that the span is
// a sum, not an interval.
func (r *spanRec) aggregate(layer string, parent, start, limit int64, ns float64, calls int64) {
	if r == nil || calls == 0 {
		return
	}
	th := r.layers[layer]
	if th == nil {
		th = r.tr.Thread(layer + " (per chunk)")
		r.layers[layer] = th
	}
	r.ids++
	d := min(max(int64(ns), 0), limit)
	r.emitOn(th, layer, "aggregate", r.ids, parent, start, start+d, []xtrace.Arg{xtrace.ArgInt("calls", calls)})
}

func (r *spanRec) emitOn(th *xtrace.Thread, name, cat string, id, parent, start, end int64, args []xtrace.Arg) {
	all := append([]xtrace.Arg{
		xtrace.ArgInt("id", id), xtrace.ArgInt("parent", parent), xtrace.ArgInt("round", r.round),
	}, args...)
	th.SpanAt(name, cat, start, end, all...)
}

// validateSpanFile checks an exported span file with xtrace.Validate,
// the checker behind cmd/tracelint.
func validateSpanFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n, err := xtrace.Validate(data)
	if err == nil && n == 0 {
		err = errNoSpans
	}
	return n, err
}
