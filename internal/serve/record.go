package serve

import (
	"fmt"
	"io"

	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// Point is one (algorithm, offered-load) cell of a serve sweep, in the
// JSON shape shared by the blob result cache and the run manifest. The
// floats it carries are computed from virtual-time integers, so the
// encoded form is byte-stable across runs, hosts, and worker counts.
type Point struct {
	Alg           string   `json:"alg"`
	Load          float64  `json:"load"` // offered load as a multiple of calibrated capacity
	MeanServiceNs int64    `json:"mean_service_ns"`
	HorizonNs     int64    `json:"horizon_ns"`
	GoodputPerSec float64  `json:"goodput_per_sec"`
	P50Ns         int64    `json:"p50_ns"`
	P99Ns         int64    `json:"p99_ns"`
	P999Ns        int64    `json:"p999_ns"`
	MaxQueueDepth int      `json:"max_queue_depth"`
	MaxHeapLen    int      `json:"max_heap_len"`
	Counters      Counters `json:"counters"`

	// Metrics carries the windowed telemetry stream when the cell ran
	// with a collector armed: closed windows, SLO verdict, governor
	// transitions, and slowest-request exemplars. Integer-valued
	// throughout, so the JSON stays byte-stable.
	Metrics *metrics.Record `json:"metrics,omitempty"`
}

// PointFrom projects a run result into a Point.
func PointFrom(alg string, load float64, r Result) Point {
	return Point{
		Alg:           alg,
		Load:          load,
		MeanServiceNs: r.MeanServiceNs,
		HorizonNs:     r.HorizonNs,
		GoodputPerSec: r.GoodputPerSec(),
		P50Ns:         r.Latency.Quantile(0.50),
		P99Ns:         r.Latency.Quantile(0.99),
		P999Ns:        r.Latency.Quantile(0.999),
		MaxQueueDepth: r.MaxQueueDepth,
		MaxHeapLen:    r.MaxHeapLen,
		Counters:      r.Counters,
		Metrics:       r.Metrics,
	}
}

// SweepRecord is the manifest record of one serve experiment: the full
// offered-load grid, governor and admission configuration, and every
// computed point — enough to audit or regenerate the tables without
// re-running the sweep. It is also the policy RunCell runs every cell
// under, so the record is by construction what ran. Its latency knobs
// are relative to each cell's calibrated mean service time: DeadlineNs,
// RetryBaseNs and Governor.WindowNs multiply the mean, RefillDiv
// divides it.
type SweepRecord struct {
	Table       string         `json:"table"`
	Workload    string         `json:"workload"`
	Arrivals    string         `json:"arrivals"` // arrival-process family, e.g. "poisson"
	Loads       []float64      `json:"loads"`    // offered-load grid (× capacity)
	Requests    int            `json:"requests"`
	Warmup      int            `json:"warmup_requests"`
	BlockPages  int            `json:"block_pages"`
	QueueCap    int            `json:"queue_cap"`
	RefillDiv   int64          `json:"refill_div"` // one token per mean/RefillDiv + 1 ns; 0 disables throttling
	Burst       int64          `json:"burst"`      // token bucket depth
	DeadlineNs  int64          `json:"deadline_ns"`
	MaxAttempts int            `json:"max_attempts"`
	RetryBaseNs int64          `json:"retry_base_ns"`
	Cost        CostModel      `json:"cost_model"`
	Governor    GovernorConfig `json:"governor"`
	Points      []Point        `json:"points"`

	// Metrics configuration, all zero when the sweep ran disarmed. The
	// window width and SLO budget are recorded as multiples of each
	// cell's calibrated mean service time (the absolute ns differ per
	// algorithm; the multiples are the sweep-level policy).
	MetricsWindowMul int64 `json:"metrics_window_mul,omitempty"`
	SLOBudgetMul     int64 `json:"slo_budget_mul,omitempty"`
	ExemplarK        int   `json:"exemplar_k,omitempty"`
}

// Cell is one cell of a serve sweep: the simulator it serves, its page
// blocks, its offered load and its seeds.
type Cell struct {
	Name string // the point's algorithm label
	Alg  mm.Algorithm
	Gen  workload.Generator
	Load float64 // offered load, as a multiple of the calibrated capacity
	Seed uint64  // retry jitter
	// Arrivals builds the open-loop arrival process from the calibrated
	// mean service time.
	Arrivals func(meanNs int64) workload.ArrivalProcess
	FaultKey string // serve-burst fault-injection key; "" disables the hook
}

// RunCell runs one cell under r's policy: calibrate on r.Warmup
// closed-loop requests (which is also the warmup), scale the deadline,
// governor window, retry base and token bucket to the calibrated mean,
// arm the metrics collector when r.MetricsWindowMul > 0, run r.Requests
// open-loop arrivals to completion, and check the accounting identities.
func (r *SweepRecord) RunCell(c Cell) (Point, error) {
	sim, err := New(Config{
		Seed: c.Seed, Requests: r.Requests, BlockPages: r.BlockPages, Cost: r.Cost,
		QueueCap: r.QueueCap, MaxAttempts: r.MaxAttempts, Governor: r.Governor, FaultKey: c.FaultKey,
	}, c.Alg, c.Gen, nil, nil)
	if err != nil {
		return Point{}, err
	}
	mean := sim.Calibrate(r.Warmup)
	sim.SetDeadlineNs(r.DeadlineNs * mean)
	sim.SetGovernorWindowNs(r.Governor.WindowNs * mean)
	sim.SetRetryBaseNs(r.RetryBaseNs * mean)
	if r.RefillDiv > 0 {
		sim.SetTokenBucket(mean/r.RefillDiv+1, r.Burst)
	}
	sim.SetArrivals(c.Arrivals(mean))
	if r.MetricsWindowMul > 0 {
		sim.ArmMetrics(metrics.Config{
			WidthNs:   r.MetricsWindowMul * mean,
			BudgetNs:  r.SLOBudgetMul * mean,
			Exemplars: r.ExemplarK,
		})
	}
	res := sim.Run()
	if err := res.Counters.CheckIdentity(); err != nil {
		return Point{}, err
	}
	return PointFrom(c.Name, c.Load, res), nil
}

// WriteMetricsTSV dumps every armed point's window stream as one flat
// TSV (the <table>.serve.metrics.tsv artifact): a row per (alg, load,
// window) with the window's counters, close-time gauges, and latency
// quantiles, preceded by per-cell SLO summary comments and followed by
// exemplar comments. Points without metrics are skipped.
func WriteMetricsTSV(w io.Writer, rec *SweepRecord) error {
	if _, err := fmt.Fprintf(w, "# %s serve metrics — window width %d× / budget %d× calibrated mean service\n",
		rec.Table, rec.MetricsWindowMul, rec.SLOBudgetMul); err != nil {
		return err
	}
	cols := "alg\toffered_load\twindow\tstart_ns\twidth_ns\tadmitted\tcompleted\trejected\tshed\ttimed_out\tretries\tfailure_ios\tdegraded_served\tqueue_depth\theap_len\ttokens\tdegraded\tlat_count\tp50_ns\tp99_ns\tmax_ns\tviolation\n"
	if _, err := io.WriteString(w, cols); err != nil {
		return err
	}
	for i := range rec.Points {
		p := &rec.Points[i]
		m := p.Metrics
		if m == nil {
			continue
		}
		s := m.SLO
		if _, err := fmt.Fprintf(w, "# slo %s load=%g: budget_ns=%d windows=%d violations=%d burn_rate_pct=%.4g max_streak=%d\n",
			p.Alg, p.Load, s.BudgetNs, s.Windows, s.Violations, s.BurnRatePct(), s.MaxStreak); err != nil {
			return err
		}
		for j := range m.Windows {
			win := &m.Windows[j]
			if _, err := fmt.Fprintf(w, "%s\t%g\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%d\t%d\t%d\t%d\t%v\n",
				p.Alg, p.Load, win.Index, win.StartNs, m.WidthNs,
				win.Admitted, win.Completed, win.Rejected, win.Shed, win.TimedOut,
				win.Retries, win.FailureIOs, win.DegradedServed,
				win.QueueDepth, win.HeapLen, win.Tokens, win.Degraded,
				win.Count, win.P50Ns, win.P99Ns, win.MaxNs, win.Violation); err != nil {
				return err
			}
		}
		for _, ex := range m.Exemplars {
			if _, err := fmt.Fprintf(w, "# exemplar %s load=%g: seq=%d outcome=%s latency_ns=%d attempts=%d failure_ios=%d queued_ns=%d service_ns=%d backoff_ns=%d degraded=%v\n",
				p.Alg, p.Load, ex.Seq, ex.Outcome, ex.LatencyNs, ex.Attempts,
				ex.FailureIOs, ex.QueuedNs, ex.ServiceNs, ex.BackoffNs, ex.Degraded); err != nil {
				return err
			}
		}
	}
	return nil
}

// HasMetrics reports whether any point of the sweep carries a windowed
// telemetry record (i.e. the sweep ran with collectors armed).
func (r *SweepRecord) HasMetrics() bool {
	for i := range r.Points {
		if r.Points[i].Metrics != nil {
			return true
		}
	}
	return false
}
