package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"addrxlat/internal/event"
	"addrxlat/internal/mm"
	"addrxlat/internal/serve"
)

// Point is one sample of an algorithm's cumulative cost counters.
// Accesses counts from the start of the sample's phase and is the curve's
// x-axis.
type Point struct {
	Accesses       uint64 `json:"accesses"`
	IOs            uint64 `json:"ios"`
	TLBMisses      uint64 `json:"tlb_misses"`
	DecodingMisses uint64 `json:"decode_misses"`
}

// Series is one algorithm's cost-over-time curve within one phase of one
// row (a row is one shared request stream — a Figure 1 workload, a
// geometry regime, atsim's workload; an event without a row label lands
// under the empty row).
type Series struct {
	Row    string  `json:"row,omitempty"`
	Phase  string  `json:"phase"`
	Alg    string  `json:"alg"`
	Points []Point `json:"points"`

	// tail is the most recent undersampled snapshot, flushed into Points
	// on snapshot so every curve ends at the final counters.
	tail    Point
	pending bool
}

type seriesKey struct{ row, phase, alg string }

// Recorder is the standard event.Observer: it collects cost-over-time
// series, attribution snapshots, phase timing records and serve sweep
// records, and renders them for the CLIs. With a Trace (SetTrace) it
// also forwards every event to it and collects the straggler report of
// each row that ends. All methods are safe for concurrent use and no-ops
// on a nil receiver.
type Recorder struct {
	interval uint64
	trace    *Trace

	mu        sync.Mutex
	series    map[seriesKey]*Series
	phases    []PhaseRecord
	explains  map[seriesKey]*ExplainSeries
	timelines []RowReport
	serves    []serve.SweepRecord
}

// NewRecorder returns a Recorder that records a curve point whenever a
// series has advanced at least interval accesses since its last recorded
// point (plus the final point of every phase). interval 0 disables series
// recording entirely — phase records are still collected, so manifests
// stay complete when curve sampling is off.
func NewRecorder(interval uint64) *Recorder {
	return &Recorder{
		interval: interval,
		series:   make(map[seriesKey]*Series),
		explains: make(map[seriesKey]*ExplainSeries),
	}
}

// SetTrace has the recorder forward every event to t, which draws the
// execution trace, and keep the report of every row t sees end (see
// Timelines). Call before the run.
func (r *Recorder) SetTrace(t *Trace) { r.trace = t }

// Observe implements event.Observer. A sample extends its (row, phase,
// alg) curve and, when it carries attribution, its explain series; a
// phase becomes a manifest phase record; a row's end is mirrored into
// expvar (see mirrorRing); a serve sweep is mirrored into expvar and
// kept for the manifest (see ServeRecord). A nil Recorder ignores every
// event.
func (r *Recorder) Observe(e event.Event) {
	if r == nil {
		return
	}
	if rep := r.trace.observe(e); rep != nil {
		r.rowTimeline(*rep)
	}
	switch e.Kind {
	case event.KindSample:
		r.sample(e.Row, e.Phase, e.Alg, e.Costs)
		if e.Explain != nil {
			r.explain(e.Row, e.Phase, e.Alg, *e.Explain, e.Gauges)
		}
	case event.KindPhase:
		r.mu.Lock()
		r.phases = append(r.phases, PhaseRecord{
			Row: e.Row, Phase: e.Phase, Alg: e.Alg,
			Accesses: e.Accesses, WallSeconds: e.Elapsed.Seconds(),
		})
		r.mu.Unlock()
	case event.KindRing:
		mirrorRing(e.Ring)
	case event.KindServe:
		if e.Serve != nil {
			r.serveSweep(*e.Serve)
		}
	}
}

// sample records alg's cumulative counters at a chunk boundary of the
// named phase of row, downsampled to the recorder's interval.
func (r *Recorder) sample(row, phase, alg string, c mm.Costs) {
	if r.interval == 0 {
		return
	}
	pt := Point{Accesses: c.Accesses, IOs: c.IOs, TLBMisses: c.TLBMisses, DecodingMisses: c.DecodingMisses}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey{row, phase, alg}
	sr := r.series[key]
	if sr == nil {
		sr = &Series{Row: row, Phase: phase, Alg: alg}
		r.series[key] = sr
	}
	if n := len(sr.Points); n == 0 || pt.Accesses-sr.Points[n-1].Accesses >= r.interval {
		sr.Points = append(sr.Points, pt)
		sr.pending = false
	} else {
		sr.tail = pt
		sr.pending = true
	}
}

// HasSeries reports whether any curve points were recorded.
func (r *Recorder) HasSeries() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.series) > 0
}

// Phases returns the phase timing records in arrival order.
func (r *Recorder) Phases() []PhaseRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PhaseRecord, len(r.phases))
	copy(out, r.phases)
	return out
}

// phaseRank orders warmup before measured; unknown phases sort after,
// lexically.
func phaseRank(phase string) int {
	switch phase {
	case mm.PhaseWarmup:
		return 0
	case mm.PhaseMeasured:
		return 1
	}
	return 2
}

// SeriesSnapshot returns the recorded series sorted by (row, phase, alg)
// — warmup before measured — with each series' undersampled tail point
// flushed, so every curve ends at the phase's final counters. The
// returned slices are copies; sampling may continue concurrently.
func (r *Recorder) SeriesSnapshot() []Series {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Series, 0, len(r.series))
	for _, sr := range r.series {
		s := Series{Row: sr.Row, Phase: sr.Phase, Alg: sr.Alg}
		s.Points = make([]Point, len(sr.Points), len(sr.Points)+1)
		copy(s.Points, sr.Points)
		if sr.pending && (len(s.Points) == 0 || sr.tail.Accesses > s.Points[len(s.Points)-1].Accesses) {
			s.Points = append(s.Points, sr.tail)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Row != out[j].Row {
			return out[i].Row < out[j].Row
		}
		ri, rj := phaseRank(out[i].Phase), phaseRank(out[j].Phase)
		if ri != rj {
			return ri < rj
		}
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Alg < out[j].Alg
	})
	return out
}

// WriteTSV renders every series as one TSV block: cumulative counters and
// per-interval deltas at each sample point. The layout (row, phase, alg,
// x, cumulative, deltas) is the cost-curve file format documented in
// EXPERIMENTS.md.
func (r *Recorder) WriteTSV(w io.Writer) error {
	cols := []string{
		"row", "phase", "alg", "accesses",
		"ios", "tlb_misses", "decode_misses",
		"d_accesses", "d_ios", "d_tlb_misses", "d_decode_misses",
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, "\t")); err != nil {
		return err
	}
	for _, s := range r.SeriesSnapshot() {
		var prev Point
		for _, pt := range s.Points {
			_, err := fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				s.Row, s.Phase, s.Alg, pt.Accesses,
				pt.IOs, pt.TLBMisses, pt.DecodingMisses,
				pt.Accesses-prev.Accesses, pt.IOs-prev.IOs,
				pt.TLBMisses-prev.TLBMisses, pt.DecodingMisses-prev.DecodingMisses)
			if err != nil {
				return err
			}
			prev = pt
		}
	}
	return nil
}

// WriteJSON renders the series snapshot as an indented JSON document
// {"series": [...]}.
func (r *Recorder) WriteJSON(w io.Writer) error {
	doc := struct {
		Series []Series `json:"series"`
	}{Series: r.SeriesSnapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
