package xtrace

import (
	"fmt"
	"io"
	"strings"

	"addrxlat/internal/hist"
)

// WorkerReport attributes one (row, simulator) worker's wall time: Busy
// is time inside chunk service spans, BlockedGeneration time waiting on
// an unpublished chunk (the generator is the bottleneck),
// BlockedAdmission time waiting on the Workers gate, Wall the worker's
// whole lifetime. The chunk-latency percentiles come from a log-bucketed
// histogram of the worker's chunk service spans (internal/hist, ≤6.25%
// relative error).
type WorkerReport struct {
	Alg                      string  `json:"alg"`
	Chunks                   int     `json:"chunks"`
	P50Micros                float64 `json:"p50_us"`
	P99Micros                float64 `json:"p99_us"`
	P999Micros               float64 `json:"p999_us"`
	MaxMicros                float64 `json:"max_us"`
	BusySeconds              float64 `json:"busy_seconds"`
	BlockedGenerationSeconds float64 `json:"blocked_generation_seconds"`
	BlockedAdmissionSeconds  float64 `json:"blocked_admission_seconds"`
	WallSeconds              float64 `json:"wall_seconds"`
}

// Blocked is the worker's total non-busy attributed time.
func (w WorkerReport) Blocked() float64 {
	return w.BlockedGenerationSeconds + w.BlockedAdmissionSeconds
}

// RowReport is the per-row straggler / critical-path report derived from
// the span stream: every worker's attribution, the straggler (the worker
// that finished last — the row's critical path, since the row ends when
// its last simulator does), and the bottleneck classification of where
// the straggler's time went.
type RowReport struct {
	Experiment string `json:"experiment,omitempty"`
	Row        string `json:"row,omitempty"`
	// WallSeconds is the row span's duration; rows traced only through
	// worker threads (materialized runners) fall back to the longest
	// worker wall.
	WallSeconds float64 `json:"wall_seconds"`
	// Straggler names the bottleneck simulator: the worker whose
	// lifetime span ends last, ties going to the busier one. With more
	// simulators than admission slots the busiest worker need not be the
	// last to finish, and it is the last one that bounds the row's wall
	// time. Workers without a lifetime span (the materialized runners)
	// all tie, so the busiest is named.
	Straggler string `json:"straggler,omitempty"`
	// Bottleneck classifies the straggler's dominant component:
	// "simulation", "generation", or "admission".
	Bottleneck string `json:"bottleneck,omitempty"`
	// ProducerBlockedSeconds is time the row's chunk-ring producer spent
	// blocked on a full ring (simulation-bound backpressure).
	ProducerBlockedSeconds float64        `json:"producer_blocked_seconds,omitempty"`
	Workers                []WorkerReport `json:"workers"`
}

// workerAgg accumulates one (row, alg) group across threads (the
// materialized runners create one thread per phase; a row worker has
// one). end is the latest end of the group's lifetime spans.
type workerAgg struct {
	alg                          string
	chunks                       int
	busy, blockedGen, blockedAdm int64
	wall, end                    int64
	h                            hist.H
}

// Analyze derives the straggler/critical-path reports from the recorded
// span stream: one RowReport per traced row, workers grouped by (row,
// simulator). Like WriteJSON it requires quiescence — call it after the
// experiment's drivers have returned. Rows are ordered by first
// appearance in the trace.
func (t *Tracer) Analyze() []RowReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	threads := make([]*Thread, len(t.threads))
	copy(threads, t.threads)
	t.mu.Unlock()

	type rowAgg struct {
		report  RowReport
		workers map[string]*workerAgg
		order   []string
	}
	rows := map[string]*rowAgg{}
	var rowOrder []string
	rowFor := func(scope, row string) *rowAgg {
		key := scope + "\x00" + row
		ra := rows[key]
		if ra == nil {
			ra = &rowAgg{
				report:  RowReport{Experiment: scope, Row: row},
				workers: map[string]*workerAgg{},
			}
			rows[key] = ra
			rowOrder = append(rowOrder, key)
		}
		return ra
	}

	for _, th := range threads {
		switch {
		case th.alg != "": // worker thread
			ra := rowFor(th.scope, th.row)
			wa := ra.workers[th.alg]
			if wa == nil {
				wa = &workerAgg{alg: th.alg}
				ra.workers[th.alg] = wa
				ra.order = append(ra.order, th.alg)
			}
			for _, e := range th.events {
				if e.Ph != 'X' {
					continue
				}
				switch e.Cat {
				case CatChunk:
					wa.chunks++
					wa.busy += e.Dur
					wa.h.Observe(e.Dur)
				case CatWait:
					switch e.Name {
					case WaitGeneration:
						wa.blockedGen += e.Dur
					case WaitAdmission:
						wa.blockedAdm += e.Dur
					}
				case CatWorker:
					wa.wall += e.Dur
					wa.end = max(wa.end, e.TS+e.Dur)
				}
			}
		case th.row != "": // row or ring thread
			ra := rowFor(th.scope, th.row)
			for _, e := range th.events {
				if e.Ph != 'X' {
					continue
				}
				switch e.Cat {
				case CatRow:
					ra.report.WallSeconds += seconds(e.Dur)
				case CatWait:
					if e.Name == WaitConsumers {
						ra.report.ProducerBlockedSeconds += seconds(e.Dur)
					}
				}
			}
		}
	}

	out := make([]RowReport, 0, len(rowOrder))
	for _, key := range rowOrder {
		ra := rows[key]
		rep := ra.report
		var straggler *workerAgg
		for _, alg := range ra.order {
			wa := ra.workers[alg]
			wr := WorkerReport{
				Alg:                      wa.alg,
				Chunks:                   wa.chunks,
				P50Micros:                micros(wa.h.Quantile(0.50)),
				P99Micros:                micros(wa.h.Quantile(0.99)),
				P999Micros:               micros(wa.h.Quantile(0.999)),
				MaxMicros:                micros(wa.h.Max()),
				BusySeconds:              seconds(wa.busy),
				BlockedGenerationSeconds: seconds(wa.blockedGen),
				BlockedAdmissionSeconds:  seconds(wa.blockedAdm),
				WallSeconds:              seconds(wa.wall),
			}
			rep.Workers = append(rep.Workers, wr)
			if straggler == nil || wa.end > straggler.end ||
				(wa.end == straggler.end && wa.busy > straggler.busy) {
				straggler = wa
			}
		}
		if rep.WallSeconds == 0 {
			// No row span (materialized runners): the longest worker stands
			// in for the row wall — and a worker without a lifetime span
			// falls back to its attributed time.
			for _, w := range rep.Workers {
				wall := w.WallSeconds
				if wall == 0 {
					wall = w.BusySeconds + w.Blocked()
				}
				if wall > rep.WallSeconds {
					rep.WallSeconds = wall
				}
			}
		}
		if straggler != nil {
			rep.Straggler = straggler.alg
			rep.Bottleneck = bottleneckOf(straggler)
		}
		if len(rep.Workers) > 0 || rep.WallSeconds > 0 {
			out = append(out, rep)
		}
	}
	return out
}

// bottleneckOf classifies where the straggler's time went: the largest of
// its three attributed components.
func bottleneckOf(w *workerAgg) string {
	switch {
	case w.busy >= w.blockedGen && w.busy >= w.blockedAdm:
		return "simulation"
	case w.blockedGen >= w.blockedAdm:
		return "generation"
	default:
		return "admission"
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// WriteTimelineTSV renders reports as the <table>.timeline.tsv format:
// one line per (row, simulator) worker with the chunk-latency percentiles
// and the busy/blocked attribution, the straggler marked. Timing numbers
// are wall-clock measurements — unlike the result tables they are NOT
// byte-stable across runs, which is why they live in their own file.
func WriteTimelineTSV(w io.Writer, reports []RowReport) error {
	cols := []string{
		"experiment", "row", "alg", "chunks",
		"p50_us", "p99_us", "p999_us", "max_us",
		"busy_s", "blocked_generation_s", "blocked_admission_s",
		"wall_s", "row_wall_s", "share_of_row", "straggler", "bottleneck",
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, "\t")); err != nil {
		return err
	}
	for _, rep := range reports {
		for _, wr := range rep.Workers {
			share := 0.0
			if rep.WallSeconds > 0 {
				share = wr.BusySeconds / rep.WallSeconds
			}
			straggler, bottleneck := "", ""
			if wr.Alg == rep.Straggler {
				straggler, bottleneck = "*", rep.Bottleneck
			}
			_, err := fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.3f\t%s\t%s\n",
				rep.Experiment, rep.Row, wr.Alg, wr.Chunks,
				wr.P50Micros, wr.P99Micros, wr.P999Micros, wr.MaxMicros,
				wr.BusySeconds, wr.BlockedGenerationSeconds, wr.BlockedAdmissionSeconds,
				wr.WallSeconds, rep.WallSeconds, share, straggler, bottleneck)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Summary formats one row report as the single-line straggler digest the
// progress stream prints.
func (r RowReport) Summary() string {
	return fmt.Sprintf("%s: straggler %s busy %.3fs blocked(gen %.3fs, admit %.3fs) of %.3fs wall [%s-bound]",
		r.Row, r.Straggler, stragglerOf(r).BusySeconds,
		stragglerOf(r).BlockedGenerationSeconds, stragglerOf(r).BlockedAdmissionSeconds,
		r.WallSeconds, r.Bottleneck)
}

// stragglerOf returns the straggler's worker report (zero value when the
// row has no workers).
func stragglerOf(r RowReport) WorkerReport {
	for _, w := range r.Workers {
		if w.Alg == r.Straggler {
			return w
		}
	}
	return WorkerReport{}
}
