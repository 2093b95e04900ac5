// Metrics surface of the serving event loop: arming the virtual-time
// window collector (internal/metrics), sampling event-boundary gauges
// and the cumulative tally the windows difference, and attributing each
// terminal request's latency to queue/service/backoff time for the
// exemplar reservoir. The attempt timeline is walked once, by Segments,
// for that split and for the trace's request spans (drawn by
// internal/obs from the sweep record).
//
// Everything here observes; nothing schedules, draws randomness, or
// mutates simulator state. The loop counts each event once, in Counters,
// armed or not; the collector reads Counters at window close, and the
// request-struct bookkeeping the exemplars read is written branch-free
// either way, so armed and disarmed runs execute the same event sequence
// (pinned by TestServeMetricsByteIdentical).
package serve

import "addrxlat/internal/metrics"

// Terminal outcome labels carried by exemplars and trace spans.
const (
	OutcomeCompleted      = "completed"
	OutcomeTimedOutQueued = "timed_out_queued"
	OutcomeTimedOutServed = "timed_out_served"
	OutcomeShed           = "shed"
)

// ArmMetrics attaches a virtual-time metrics collector to the run. Call
// after Calibrate (the window width should be a multiple of the
// calibrated mean so it is seed/host-stable) and before Start.
func (s *Sim) ArmMetrics(cfg metrics.Config) { s.met = metrics.New(cfg) }

// MetricsRecord finalizes and returns the collector's record, nil when
// disarmed. The first call closes the trailing partial window with the
// loop's final gauges; each call assembles a fresh Record. Valid once
// Step returns false (or Run returns).
func (s *Sim) MetricsRecord() *metrics.Record {
	if s.met == nil {
		return nil
	}
	s.met.Finish(s.gauges())
	rec := s.met.Report()
	return &rec
}

// gauges snapshots the event-boundary state the window collector samples
// at window close, with the run's counts so far as the tally whose growth
// each window reports. Between events every gauge is constant, so the
// sample is exact for any window edge the clock jumped over.
func (s *Sim) gauges() metrics.Gauges {
	c := &s.c
	return metrics.Gauges{
		QueueDepth: s.queue.len(),
		HeapLen:    len(s.heap),
		Tokens:     s.tokensNow(),
		Degraded:   s.degraded,
		Tally: metrics.Tally{
			Admitted:       c.Admitted,
			Completed:      c.Completed,
			Rejected:       c.RejectedQueue + c.RejectedThrottle,
			Shed:           c.Shed,
			TimedOut:       c.TimedOutQueued + c.TimedOutServed,
			Retries:        c.Retries,
			FailureIOs:     s.failIOs,
			DegradedServed: c.Degraded,
		},
	}
}

// tokensNow computes the token bucket's effective level at the current
// virtual time without mutating the lazily-refilled bucket state.
// Returns -1 when throttling is disabled (no bucket to read).
func (s *Sim) tokensNow() int64 {
	if s.cfg.RefillNs <= 0 {
		return -1
	}
	if !s.bkt.primed {
		return s.cfg.Burst
	}
	t := s.bkt.tokens + (s.now-s.bkt.lastNs)/s.cfg.RefillNs
	if t > s.cfg.Burst {
		t = s.cfg.Burst
	}
	return t
}

// observeTerminal offers a finished request to the exemplar reservoir
// with the causal split of its latency: time queued, in service, and in
// retry backoff, summed over the segments of its attempt timeline.
// Requests whose attempt count overflows the fixed timeline keep their
// true Attempts and LatencyNs but an under-counted split (the harness
// runs 3 attempts; the cap is 8).
func (s *Sim) observeTerminal(r *request, outcome string) {
	if s.met == nil {
		return
	}
	ex := metrics.Exemplar{
		Seq:        r.seq,
		ArriveNs:   r.arriveNs,
		LatencyNs:  s.now - r.arriveNs,
		Outcome:    outcome,
		Attempts:   r.attempts,
		FailureIOs: r.failIOs,
		Degraded:   r.degraded,
		Timeline:   r.rec,
	}
	Segments(&ex, func(g Segment) {
		switch g.Kind {
		case SegmentQueued:
			ex.QueuedNs += g.EndNs - g.StartNs
		case SegmentAttempt:
			ex.ServiceNs += g.EndNs - g.StartNs
		case SegmentBackoff:
			ex.BackoffNs += g.EndNs - g.StartNs
		}
	})
	s.met.ObserveTerminal(ex)
}

// SegmentKind says where a request spent one Segment of its life.
type SegmentKind uint8

// The segment kinds.
const (
	SegmentQueued  SegmentKind = iota // waiting in the admission queue
	SegmentAttempt                    // one service attempt on the simulator
	SegmentBackoff                    // retry backoff between attempts
)

// Segment is one interval of a request's attempt timeline, in virtual
// nanoseconds. Attempt numbers a SegmentAttempt from 1.
type Segment struct {
	Kind           SegmentKind
	Attempt        int
	StartNs, EndNs int64
}

// Segments walks ex's attempt timeline from arrival to its terminal
// outcome at ArriveNs+LatencyNs, calling fn once per segment in order:
// per attempt its queued and service intervals and the backoff before a
// re-enqueue, then the tail of a request that ended waiting (still
// queued, or shed during backoff before it re-enqueued). Attempts past
// metrics.MaxAttemptRecs have no timeline and yield nothing.
func Segments(ex *metrics.Exemplar, fn func(Segment)) {
	tl := &ex.Timeline
	endNs := ex.ArriveNs + ex.LatencyNs
	last := min(ex.Attempts, metrics.MaxAttemptRecs)
	for i := 0; i < last; i++ {
		rec := tl[i]
		fn(Segment{Kind: SegmentQueued, StartNs: rec.EnqueueNs, EndNs: rec.StartNs})
		fn(Segment{Kind: SegmentAttempt, Attempt: i + 1, StartNs: rec.StartNs, EndNs: rec.EndNs})
		if i+1 < metrics.MaxAttemptRecs && tl[i+1].EnqueueNs > 0 {
			fn(Segment{Kind: SegmentBackoff, StartNs: rec.EndNs, EndNs: tl[i+1].EnqueueNs})
		}
	}
	switch {
	case last < metrics.MaxAttemptRecs && tl[last].EnqueueNs > 0 && tl[last].StartNs == 0:
		// A pending enqueue with no service start: the request timed out
		// or was governor-shed while waiting in the queue.
		fn(Segment{Kind: SegmentQueued, StartNs: tl[last].EnqueueNs, EndNs: endNs})
	case last > 0 && endNs > tl[last-1].EndNs:
		// Shed at retry time: the tail is backoff that never re-enqueued.
		fn(Segment{Kind: SegmentBackoff, StartNs: tl[last-1].EndNs, EndNs: endNs})
	}
}
