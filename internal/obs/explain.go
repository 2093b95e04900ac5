package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"addrxlat/internal/explain"
)

// Counters is the cost-attribution event taxonomy the mm algorithms
// increment: IOs split into demand / amplification / failure fills, TLB
// misses into compulsory / capacity / coverage-loss, plus the adaptive
// events (promotions, demotions, preemptions, shootdowns, ...). It is an
// alias of explain.Counters — the taxonomy lives in the leaf package
// internal/explain so mm can increment it without importing obs.
type Counters = explain.Counters

// Gauges is the chunk-boundary structural gauge set: RAM utilization and
// its distance to the derived δ, fragmentation, TLB coverage and reach,
// and — for the decoupled schemes — the bucket-load histogram with the
// Theorem 2 bound evaluated alongside the observed max load.
type Gauges = explain.Gauges

// ExplainSeries is one algorithm's latest attribution state within one
// phase of one row. Counters are cumulative from the phase start (the
// last delivered snapshot wins); Gauges describe the structural state at
// the last chunk boundary, except PeakMaxLoad, which tracks the largest
// bucket max load seen across the whole phase so a transient load spike
// cannot hide behind a calmer final sample.
type ExplainSeries struct {
	Row         string   `json:"row,omitempty"`
	Phase       string   `json:"phase"`
	Alg         string   `json:"alg"`
	Counters    Counters `json:"counters"`
	Gauges      *Gauges  `json:"gauges,omitempty"`
	PeakMaxLoad int      `json:"peak_max_load,omitempty"`
}

// explain stores alg's cumulative attribution snapshot (and structural
// gauges, when the algorithm exposes them) for the named phase of row,
// and mirrors the aggregate totals into expvar for `figures -http`.
func (r *Recorder) explain(row, phase, alg string, c Counters, g *Gauges) {
	r.mu.Lock()
	key := seriesKey{row, phase, alg}
	e := r.explains[key]
	if e == nil {
		e = &ExplainSeries{Row: row, Phase: phase, Alg: alg}
		r.explains[key] = e
	}
	e.Counters = c
	if g != nil {
		gg := *g
		e.Gauges = &gg
		if g.MaxLoad > e.PeakMaxLoad {
			e.PeakMaxLoad = g.MaxLoad
		}
	}
	totals := r.explainTotalsLocked()
	r.mu.Unlock()
	mirrorExplain(totals)
}

// HasExplain reports whether any attribution snapshots were recorded.
func (r *Recorder) HasExplain() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.explains) > 0
}

// ExplainSnapshot returns the recorded attribution series sorted by
// (row, phase, alg) — warmup before measured, like SeriesSnapshot. The
// entries are copies; recording may continue concurrently.
func (r *Recorder) ExplainSnapshot() []ExplainSeries {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ExplainSeries, 0, len(r.explains))
	for _, e := range r.explains {
		s := *e
		if e.Gauges != nil {
			g := *e.Gauges
			g.LoadHist = append([]int(nil), e.Gauges.LoadHist...)
			s.Gauges = &g
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

// ExplainTotals sums the latest attribution counters across every
// recorded series — warmup and measured contribute separately, since the
// counters reset with the costs at the phase boundary. This is the
// per-experiment summary embedded in the run manifest.
func (r *Recorder) ExplainTotals() Counters {
	if r == nil {
		return Counters{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.explainTotalsLocked()
}

func (r *Recorder) explainTotalsLocked() Counters {
	var t Counters
	for _, e := range r.explains {
		t.Merge(e.Counters)
	}
	return t
}

// explainCols is the column layout of the explain TSV: identity, the
// event taxonomy (grouped IO / TLB / decode / adaptive), then the
// structural gauges with the bound-monitor triple (max_load,
// peak_max_load, t2_bound, bound_ok) last.
var explainCols = []string{
	"row", "phase", "alg",
	"ios", "io_demand", "io_amplified", "io_failure", "evictions",
	"tlb_misses", "tlb_compulsory", "tlb_capacity", "tlb_coverage_loss", "tlb_invalidations",
	"decode_misses",
	"promotions", "demotions", "preemptions", "shootdowns",
	"nested_walks", "coalesced_fills", "single_fills",
	"utilization", "delta_target", "delta_observed", "fragmentation",
	"coverage_pages", "tlb_reach_pages", "promoted_regions",
	"buckets", "avg_load", "max_load", "peak_max_load", "t2_bound", "bound_ok",
}

// WriteExplainTSV renders the attribution snapshot as one TSV row per
// (row, phase, alg) series: the event counters, then the structural
// gauges. Gauge columns render "-" for algorithms without gauges, and the
// bucket-load columns render "-" for algorithms without an exposed
// allocator. bound_ok compares the phase's peak max load against the
// evaluated Theorem 2 bound.
func (r *Recorder) WriteExplainTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(explainCols, "\t")); err != nil {
		return err
	}
	for _, s := range r.ExplainSnapshot() {
		c := s.Counters
		cells := []string{
			s.Row, s.Phase, s.Alg,
			fmt.Sprint(c.IOs()), fmt.Sprint(c.IODemand), fmt.Sprint(c.IOAmplified),
			fmt.Sprint(c.IOFailure), fmt.Sprint(c.Evictions),
			fmt.Sprint(c.TLBMisses()), fmt.Sprint(c.TLBCompulsory), fmt.Sprint(c.TLBCapacity),
			fmt.Sprint(c.TLBCoverageLoss), fmt.Sprint(c.TLBInvalidations),
			fmt.Sprint(c.DecodeMisses),
			fmt.Sprint(c.Promotions), fmt.Sprint(c.Demotions),
			fmt.Sprint(c.Preemptions), fmt.Sprint(c.Shootdowns),
			fmt.Sprint(c.NestedWalks), fmt.Sprint(c.CoalescedFills), fmt.Sprint(c.SingleFills),
		}
		if g := s.Gauges; g != nil {
			cells = append(cells,
				fmt.Sprintf("%.4f", g.Utilization),
				fmt.Sprintf("%.4f", g.DeltaTarget),
				fmt.Sprintf("%.4f", g.DeltaObserved),
				fmt.Sprintf("%.4f", g.Fragmentation),
				fmt.Sprint(g.CoveragePages),
				fmt.Sprint(g.TLBReachPages),
				fmt.Sprint(g.PromotedRegions),
			)
			if g.HasLoads {
				boundOK := "yes"
				if float64(s.PeakMaxLoad) > g.Theorem2Bound {
					boundOK = "no"
				}
				cells = append(cells,
					fmt.Sprint(g.Buckets),
					fmt.Sprintf("%.2f", g.AvgLoad),
					fmt.Sprint(g.MaxLoad),
					fmt.Sprint(s.PeakMaxLoad),
					fmt.Sprintf("%.1f", g.Theorem2Bound),
					boundOK,
				)
			} else {
				cells = append(cells, "-", "-", "-", "-", "-", "-")
			}
		} else {
			for len(cells) < len(explainCols) {
				cells = append(cells, "-")
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteExplainJSON renders the attribution snapshot as an indented JSON
// document {"explain": [...]}, bucket-load histograms included.
func (r *Recorder) WriteExplainJSON(w io.Writer) error {
	doc := struct {
		Explain []ExplainSeries `json:"explain"`
	}{Explain: r.ExplainSnapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// mirrorExplain publishes the aggregate attribution totals under the
// "addrxlat.explain_*" expvar names, next to the sweep-progress counters
// StartHTTP serves.
func mirrorExplain(t Counters) {
	expInt("explain_io_demand").Set(int64(t.IODemand))
	expInt("explain_io_amplified").Set(int64(t.IOAmplified))
	expInt("explain_io_failure").Set(int64(t.IOFailure))
	expInt("explain_evictions").Set(int64(t.Evictions))
	expInt("explain_tlb_compulsory").Set(int64(t.TLBCompulsory))
	expInt("explain_tlb_capacity").Set(int64(t.TLBCapacity))
	expInt("explain_tlb_coverage_loss").Set(int64(t.TLBCoverageLoss))
	expInt("explain_decode_misses").Set(int64(t.DecodeMisses))
	expInt("explain_promotions").Set(int64(t.Promotions))
	expInt("explain_demotions").Set(int64(t.Demotions))
	expInt("explain_shootdowns").Set(int64(t.Shootdowns))
}
