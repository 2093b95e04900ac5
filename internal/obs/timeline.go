package obs

import (
	"fmt"
	"io"
	"strings"
)

// WorkerReport attributes one (row, simulator) worker's wall time: Busy
// is time inside AccessBatch calls, BlockedGeneration time waiting on an
// unpublished chunk (the generator is the bottleneck), BlockedAdmission
// time waiting on the Workers gate, Wall the worker's whole lifetime.
// The chunk-latency percentiles come from a log-bucketed histogram of
// the worker's AccessBatch times (internal/hist, ≤6.25% relative error).
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

// RowReport is one row's straggler / critical-path report, built by
// Trace from the row's events: every worker's attribution, the straggler
// (the worker that finished last — the row's critical path, since the
// row ends when its last simulator does), and the bottleneck
// classification of where the straggler's time went.
type RowReport struct {
	// Experiment labels the report for the manifest and the TSV; the
	// CLIs set it (Trace does not know which experiment is running).
	Experiment string `json:"experiment,omitempty"`
	Row        string `json:"row,omitempty"`
	// WallSeconds is the row's wall time; a serve table, whose cells
	// have no row around them, falls back to its longest cell.
	WallSeconds float64 `json:"wall_seconds"`
	// Straggler names the bottleneck simulator: the worker whose
	// lifetime ends last, ties going to the busier one. With more
	// simulators than admission slots the busiest worker need not be the
	// last to finish, and it is the last one that bounds the row's wall
	// time. Serve cells have no lifetime and all tie, so the busiest is
	// named.
	Straggler string `json:"straggler,omitempty"`
	// Bottleneck classifies the straggler's dominant component:
	// "simulation", "generation", or "admission".
	Bottleneck string `json:"bottleneck,omitempty"`
	// ProducerBlockedSeconds is time the row's chunk-ring producer spent
	// blocked on a full ring (simulation-bound backpressure).
	ProducerBlockedSeconds float64        `json:"producer_blocked_seconds,omitempty"`
	Workers                []WorkerReport `json:"workers"`
}

// rowTimeline folds one finished row's report into the recorder — for
// the manifest's timeline block — and mirrors the headline numbers to
// the "addrxlat.xtrace_*" expvars StartHTTP serves: which row was
// attributed last, which simulator is its straggler, what bounds it, and
// the cumulative busy/blocked split in milliseconds.
func (r *Recorder) rowTimeline(rep RowReport) {
	expInt("xtrace_rows").Add(1)
	expStr("xtrace_last_row").Set(rep.Row)
	expStr("xtrace_straggler").Set(rep.Row + "|" + rep.Straggler)
	expStr("xtrace_bottleneck").Set(rep.Bottleneck)
	expInt("xtrace_row_wall_ms").Set(int64(rep.WallSeconds * 1e3))
	expInt("xtrace_producer_blocked_ms").Add(int64(rep.ProducerBlockedSeconds * 1e3))
	for _, w := range rep.Workers {
		expInt("xtrace_busy_ms").Add(int64(w.BusySeconds * 1e3))
		expInt("xtrace_blocked_generation_ms").Add(int64(w.BlockedGenerationSeconds * 1e3))
		expInt("xtrace_blocked_admission_ms").Add(int64(w.BlockedAdmissionSeconds * 1e3))
	}
	r.mu.Lock()
	r.timelines = append(r.timelines, rep)
	r.mu.Unlock()
}

// Timelines returns the reports of the rows that ended under this
// recorder, in the order they ended. Only a recorder with a Trace (see
// SetTrace) collects them.
func (r *Recorder) Timelines() []RowReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RowReport, len(r.timelines))
	copy(out, r.timelines)
	return out
}

// Timeline prints one row's straggler digest as a progress line, for
// sweeps watched with -progress while tracing is armed.
func (p *Progress) Timeline(rep RowReport) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "%s:   timeline %s\n", p.label, rep.Summary())
}

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
	var s WorkerReport
	for _, w := range r.Workers {
		if w.Alg == r.Straggler {
			s = w
			break
		}
	}
	return fmt.Sprintf("%s: straggler %s busy %.3fs blocked(gen %.3fs, admit %.3fs) of %.3fs wall [%s-bound]",
		r.Row, r.Straggler, s.BusySeconds, s.BlockedGenerationSeconds, s.BlockedAdmissionSeconds,
		r.WallSeconds, r.Bottleneck)
}
