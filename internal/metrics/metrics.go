// Package metrics is the virtual-time telemetry substrate of the serving
// front-end (internal/serve): fixed-width windows over the run's integer
// virtual clock, each carrying the window's serve-event counts, gauges
// sampled at window close, and the latency quantiles of the completions
// that landed inside it; a rolling SLO tracker comparing each window's
// p99 against a budget (burn rate and longest-violation streak); and a
// top-K reservoir of the slowest requests with causal attribution.
//
// The collector counts no events itself. The caller hands it the run's
// cumulative Tally with every gauge sample, and a window's counts are the
// tally's growth from the previous close to its own, the way the paper
// reads C_TLB and C_IO as the growth of cumulative counters over the
// measured window.
//
// Everything here is observational and deterministic. The collector
// consumes only virtual-time stamps and counts the event loop already
// keeps — it draws no randomness, schedules no events, and mutates no
// simulator state — so an instrumented serving run stays byte-identical
// to a bare one (pinned by TestServeMetricsByteIdentical). The window
// width is derived by the caller from the calibrated mean service time,
// which is itself a pure function of (config, seeds), so the window
// stream is stable across hosts and worker counts.
//
// Steady state allocates nothing per event: the window latency histogram
// is one reusable hist.H that Resets at window close, closed windows
// append compact integer records to a pre-grown slice, and the exemplar
// reservoir is a fixed array.
//
// The package is a leaf below serve: it imports only hist (make
// deps-check enforces this).
package metrics

import "addrxlat/internal/hist"

// Config parameterizes one collector.
type Config struct {
	// WidthNs is the fixed window width in virtual nanoseconds; the
	// serving harness derives it from the calibrated mean service time
	// (a seed/host-stable quantity), never from wall clocks.
	WidthNs int64
	// BudgetNs is the SLO latency budget: a window whose completion p99
	// exceeds it is a violation. 0 disables SLO tracking.
	BudgetNs int64
	// Exemplars caps the slowest-request reservoir (0 disables it).
	Exemplars int
}

// Tally counts the serve events a window reports. The caller keeps it
// cumulative over the run; a Window carries its growth across the window.
type Tally struct {
	Admitted       uint64 `json:"admitted,omitempty"`
	Completed      uint64 `json:"completed,omitempty"`
	Rejected       uint64 `json:"rejected,omitempty"`
	Shed           uint64 `json:"shed,omitempty"`
	TimedOut       uint64 `json:"timed_out,omitempty"`
	Retries        uint64 `json:"retries,omitempty"`
	FailureIOs     uint64 `json:"failure_ios,omitempty"`
	DegradedServed uint64 `json:"degraded_served,omitempty"`
}

// sub returns the growth from an earlier tally of the same run.
func (t Tally) sub(prev Tally) Tally {
	return Tally{
		Admitted:       t.Admitted - prev.Admitted,
		Completed:      t.Completed - prev.Completed,
		Rejected:       t.Rejected - prev.Rejected,
		Shed:           t.Shed - prev.Shed,
		TimedOut:       t.TimedOut - prev.TimedOut,
		Retries:        t.Retries - prev.Retries,
		FailureIOs:     t.FailureIOs - prev.FailureIOs,
		DegradedServed: t.DegradedServed - prev.DegradedServed,
	}
}

// Window is one closed fixed-width virtual-time window: the events
// counted between its edges, gauges sampled at the first event at or
// after its close, and the latency summary of its completions. All fields
// are integers computed from virtual time, so the JSON encoding (blob
// cache, manifest) is byte-stable.
type Window struct {
	Index   int   `json:"index"`    // window number, 0-based
	StartNs int64 `json:"start_ns"` // Index * WidthNs

	Tally // events within the window

	// Gauges sampled at window close. Virtual time between events carries
	// no state changes, so the sample taken at the first event at or
	// after the window edge is exact for the edge itself.
	QueueDepth int   `json:"queue_depth"`
	HeapLen    int   `json:"heap_len"`
	Tokens     int64 `json:"tokens"`
	Degraded   bool  `json:"degraded,omitempty"`

	// Latency of the completions inside the window (sojourn ns).
	Count uint64 `json:"count"`
	P50Ns int64  `json:"p50_ns"`
	P99Ns int64  `json:"p99_ns"`
	MaxNs int64  `json:"max_ns"`

	// Violation marks a window whose p99 exceeded the budget. Empty
	// windows (no completions) never violate: with nothing served there
	// is no tail to judge — starvation shows up in the counter columns.
	Violation bool `json:"violation,omitempty"`
}

// Gauges is the event-boundary state snapshot the collector samples when
// it closes a window. The serving event loop passes its current values;
// between events they are constant, so they are exact at the window edge.
type Gauges struct {
	QueueDepth int
	HeapLen    int
	Tokens     int64
	Degraded   bool
	Tally      Tally // the run's cumulative event counts
}

// SLO is the rolling service-level summary over the closed windows:
// how many violated the p99 budget, the violation burn rate
// (Violations/Windows), and the longest consecutive violation streak.
type SLO struct {
	BudgetNs   int64 `json:"budget_ns"`
	Windows    int   `json:"windows"`
	Violations int   `json:"violations"`
	MaxStreak  int   `json:"max_streak"`
}

// Met reports whether the run met its SLO under the given burn-rate
// ceiling, expressed as the integer ratio num/den (e.g. 1/20 = 5%):
// at most that fraction of windows may violate the p99 budget. A run
// with no windows trivially meets any budget.
func (s SLO) Met(num, den int) bool {
	return s.Violations*den <= s.Windows*num
}

// BurnRatePct is the violation rate in percent, for table rendering.
func (s SLO) BurnRatePct() float64 {
	if s.Windows == 0 {
		return 0
	}
	return 100 * float64(s.Violations) / float64(s.Windows)
}

// AttemptRec is one service attempt in a request's lifecycle: when the
// request (re-)entered the admission queue, when the server picked it up,
// and when service finished. A timed-out-in-queue terminal leaves
// StartNs/EndNs zero; the gap between one attempt's EndNs and the next
// attempt's EnqueueNs is retry backoff.
type AttemptRec struct {
	EnqueueNs int64
	StartNs   int64
	EndNs     int64
}

// MaxAttemptRecs caps the per-request attempt timeline (the serve
// harness runs 3 attempts; the cap only matters for exotic CLI configs).
const MaxAttemptRecs = 8

// Exemplar is one of the run's slowest requests, with the causal split
// of where its latency went: queued vs in-service vs retry backoff, how
// many attempts it took, how many decoupling-failure IOs it triggered,
// and whether any attempt ran in degraded mode. The attempt timeline is
// kept for trace export but excluded from JSON (blob and manifest stay
// compact; a cache-hit cell has no execution to trace anyway).
type Exemplar struct {
	Seq        uint64 `json:"seq"` // admission order, the deterministic tiebreak
	ArriveNs   int64  `json:"arrive_ns"`
	LatencyNs  int64  `json:"latency_ns"` // arrival → terminal outcome
	Outcome    string `json:"outcome"`    // completed|timed_out_queued|timed_out_served|shed
	Attempts   int    `json:"attempts"`
	FailureIOs uint64 `json:"failure_ios,omitempty"`
	QueuedNs   int64  `json:"queued_ns"`
	ServiceNs  int64  `json:"service_ns"`
	BackoffNs  int64  `json:"backoff_ns"`
	Degraded   bool   `json:"degraded,omitempty"`

	Timeline [MaxAttemptRecs]AttemptRec `json:"-"`
}

// GovernorEvent is one governor transition instant (virtual time), kept
// so the trace export can emit paired trip/clear instants.
type GovernorEvent struct {
	AtNs int64 `json:"at_ns"`
	Trip bool  `json:"trip"` // true = normal→degraded, false = degraded→normal
}

// Record is the serialized form of a finished collector: what rides in
// the blob cache, the manifest's SweepRecord points, and the
// <table>.serve.metrics.tsv dumps.
type Record struct {
	WidthNs   int64           `json:"width_ns"`
	SLO       SLO             `json:"slo"`
	Windows   []Window        `json:"windows"`
	Exemplars []Exemplar      `json:"exemplars,omitempty"`
	Governor  []GovernorEvent `json:"governor_events,omitempty"`
}

// C collects the per-window stream for one serving run. The zero value is
// unusable; construct with New. C is owned by one event loop and is not
// safe for concurrent use.
type C struct {
	cfg      Config
	cur      Window // open window's index and start
	mark     Tally  // the tally at the last close
	lat      hist.H // reusable window histogram, Reset at close
	windows  []Window
	slo      SLO
	streak   int
	finished bool

	ex  []Exemplar // reservoir, len ≤ cfg.Exemplars
	gov []GovernorEvent
}

// New returns a collector over windows of cfg.WidthNs. WidthNs must be
// positive; negative knobs are treated as disabled.
func New(cfg Config) *C {
	if cfg.WidthNs < 1 {
		cfg.WidthNs = 1
	}
	if cfg.Exemplars < 0 {
		cfg.Exemplars = 0
	}
	c := &C{cfg: cfg}
	c.slo.BudgetNs = cfg.BudgetNs
	// Pre-grow the append targets so the event loop's steady state stays
	// allocation-free: windows grow geometrically from here, and governor
	// transitions are rare by construction (the governor holds a tripped
	// state for whole windows).
	c.windows = make([]Window, 0, 64)
	if cfg.Exemplars > 0 {
		c.ex = make([]Exemplar, 0, cfg.Exemplars)
	}
	c.gov = make([]GovernorEvent, 0, 16)
	return c
}

// WidthNs returns the configured window width.
func (c *C) WidthNs() int64 { return c.cfg.WidthNs }

// Advance closes every window whose edge is at or before now, sampling g
// into each. Call it with the event loop's clock before applying the
// event's effects, so an event at time t lands in t's own window and the
// closing gauges describe the state at the edge. The first window closed
// takes the tally's growth since the last close; any further ones the
// clock jumped over saw no events and count zero. Nil-safe.
func (c *C) Advance(now int64, g Gauges) {
	if c == nil {
		return
	}
	for now >= c.cur.StartNs+c.cfg.WidthNs {
		c.close(g)
	}
}

// close seals the open window and opens the next one.
func (c *C) close(g Gauges) {
	w := c.cur
	w.Tally = g.Tally.sub(c.mark)
	c.mark = g.Tally
	w.QueueDepth = g.QueueDepth
	w.HeapLen = g.HeapLen
	w.Tokens = g.Tokens
	w.Degraded = g.Degraded
	w.Count = c.lat.Count()
	w.P50Ns = c.lat.Quantile(0.50)
	w.P99Ns = c.lat.Quantile(0.99)
	w.MaxNs = c.lat.Max()
	if c.cfg.BudgetNs > 0 {
		if w.Count > 0 && w.P99Ns > c.cfg.BudgetNs {
			w.Violation = true
			c.slo.Violations++
			c.streak++
			if c.streak > c.slo.MaxStreak {
				c.slo.MaxStreak = c.streak
			}
		} else {
			c.streak = 0
		}
	}
	c.windows = append(c.windows, w)
	c.lat.Reset()
	c.cur = Window{Index: w.Index + 1, StartNs: w.StartNs + c.cfg.WidthNs}
}

// Finish closes the trailing partial window (gauges and tally sampled
// from the loop's final state) exactly once; further calls are no-ops.
// Call after the event loop drains, before Report.
func (c *C) Finish(g Gauges) {
	if c == nil || c.finished {
		return
	}
	c.finished = true
	c.close(g)
}

// Complete observes one in-deadline completion's sojourn latency into
// the open window. Nil-safe, so the event loop calls it unconditionally.
func (c *C) Complete(latNs int64) {
	if c != nil {
		c.lat.Observe(latNs)
	}
}

// Governor records a governor transition instant for the trace export.
func (c *C) Governor(now int64, trip bool) {
	if c != nil {
		c.gov = append(c.gov, GovernorEvent{AtNs: now, Trip: trip})
	}
}

// ObserveTerminal offers a finished request to the exemplar reservoir:
// the K slowest by latency, ties broken toward the earlier admission so
// the reservoir is independent of heap-order accidents. No-op when the
// reservoir is disabled. ex is copied; the caller may reuse its storage.
func (c *C) ObserveTerminal(ex Exemplar) {
	if c == nil || c.cfg.Exemplars == 0 {
		return
	}
	if len(c.ex) < c.cfg.Exemplars {
		c.ex = append(c.ex, ex)
		return
	}
	// Find the reservoir's weakest entry: lowest latency, then latest seq.
	weakest := 0
	for i := 1; i < len(c.ex); i++ {
		if c.ex[i].LatencyNs < c.ex[weakest].LatencyNs ||
			(c.ex[i].LatencyNs == c.ex[weakest].LatencyNs && c.ex[i].Seq > c.ex[weakest].Seq) {
			weakest = i
		}
	}
	w := c.ex[weakest]
	if ex.LatencyNs > w.LatencyNs || (ex.LatencyNs == w.LatencyNs && ex.Seq < w.Seq) {
		c.ex[weakest] = ex
	}
}

// Report assembles the finished Record: the closed windows, the SLO
// summary, the governor transitions, and the exemplars sorted slowest
// first (seq ascending on ties). Call after Finish. Nil-safe (nil → zero
// Record).
func (c *C) Report() Record {
	if c == nil {
		return Record{}
	}
	ex := make([]Exemplar, len(c.ex))
	copy(ex, c.ex)
	// Insertion sort: the reservoir is tiny and the order must be
	// deterministic — latency descending, seq ascending on ties.
	for i := 1; i < len(ex); i++ {
		for j := i; j > 0; j-- {
			if ex[j].LatencyNs > ex[j-1].LatencyNs ||
				(ex[j].LatencyNs == ex[j-1].LatencyNs && ex[j].Seq < ex[j-1].Seq) {
				ex[j], ex[j-1] = ex[j-1], ex[j]
			} else {
				break
			}
		}
	}
	slo := c.slo
	if c.cfg.BudgetNs > 0 {
		slo.Windows = len(c.windows)
	}
	return Record{
		WidthNs:   c.cfg.WidthNs,
		SLO:       slo,
		Windows:   c.windows,
		Exemplars: ex,
		Governor:  c.gov,
	}
}
