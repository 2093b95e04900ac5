// Package serve wraps an mm simulator in a deterministic discrete-event
// serving front-end: open-loop request arrivals, a bounded admission
// queue with token-bucket throttling, per-request deadlines, retry with
// exponential backoff for requests that hit decoupling failure IOs, and a
// graceful-degradation governor that sheds load under sustained overload.
//
// The paper prices a single tenant's accesses (IO = 1, TLB miss = ε);
// this package turns those unit costs into latency (IO = µs-scale, miss =
// ε-scale, constants in CostModel) and asks the serving question: when
// requests arrive faster than the machine can translate-and-page for
// them, what does each algorithm's goodput curve look like?
//
// Everything runs in virtual integer nanoseconds under a seeded event
// loop — no wall clocks, no goroutines — so a run is a pure function of
// (config, seeds): tables pin byte-identical across hosts, worker counts,
// and re-runs. Steady state allocates nothing: requests come from a
// freelist, the queue is a fixed ring, the event heap is a reusable
// slice, and latency lands in a log-bucketed histogram.
package serve

import (
	"fmt"
	"math"

	"addrxlat/internal/explain"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/hist"
	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// CostModel converts an mm cost delta into service nanoseconds. The
// defaults keep the paper's IO ⋙ miss separation at hardware-plausible
// magnitudes: an IO is µs-scale (page move to/from fast storage), a TLB
// or decode miss is the ε-scale tens-of-ns walk, and every access pays a
// 1 ns pipeline floor.
type CostModel struct {
	IONs         int64 `json:"io_ns"`          // per IO (page move)
	TLBMissNs    int64 `json:"tlb_miss_ns"`    // per TLB insertion
	DecodeMissNs int64 `json:"decode_miss_ns"` // per decoding miss
	AccessNs     int64 `json:"access_ns"`      // per access (base cost)
}

// DefaultCostModel is the one latency-constants table every serve
// experiment shares (DESIGN.md §13).
func DefaultCostModel() CostModel {
	return CostModel{IONs: 2000, TLBMissNs: 20, DecodeMissNs: 20, AccessNs: 1}
}

// ServiceNs prices a cost delta, flooring at 1 ns so virtual time always
// advances.
func (cm CostModel) ServiceNs(d mm.Costs) int64 {
	ns := int64(d.IOs)*cm.IONs + int64(d.TLBMisses)*cm.TLBMissNs +
		int64(d.DecodingMisses)*cm.DecodeMissNs + int64(d.Accesses)*cm.AccessNs
	if ns < 1 {
		ns = 1
	}
	return ns
}

// Counters is the serve-event taxonomy, the request-level analogue of the
// explain package's cost taxonomy, and the serving loop's only per-event
// tally: each event adds to one field, and the governor and the metrics
// windows read differences of it. Two identities hold exactly (pinned by
// CheckIdentity and the experiment tests):
//
//	Offered  = Admitted + RejectedQueue + RejectedThrottle
//	Admitted = Completed + TimedOutQueued + TimedOutServed + Shed
//
// Every admitted request reaches exactly one terminal outcome; Retries,
// RetryExhausted, Degraded, GovernorTrips and GovernorRecoveries are
// informational (a retried request still terminates exactly once).
type Counters struct {
	Offered          uint64 `json:"offered"`                     // arrivals generated
	Admitted         uint64 `json:"admitted"`                    // accepted into the queue
	RejectedQueue    uint64 `json:"rejected_queue,omitempty"`    // bounded FIFO full at arrival
	RejectedThrottle uint64 `json:"rejected_throttle,omitempty"` // token bucket empty at arrival
	Completed        uint64 `json:"completed"`                   // served within deadline (goodput)
	TimedOutQueued   uint64 `json:"timed_out_queued,omitempty"`  // deadline passed while waiting
	TimedOutServed   uint64 `json:"timed_out_served,omitempty"`  // finished service past deadline
	Shed             uint64 `json:"shed,omitempty"`              // dropped by the governor, or a retry meeting a full queue
	Retries          uint64 `json:"retries,omitempty"`           // re-service attempts scheduled after a failure IO
	RetryExhausted   uint64 `json:"retry_exhausted,omitempty"`   // completions that had burned every retry budget
	Degraded         uint64 `json:"degraded,omitempty"`          // service attempts run in degraded mode
	GovernorTrips    uint64 `json:"governor_trips,omitempty"`    // normal → degraded transitions
	GovernorRecovers uint64 `json:"governor_recovers,omitempty"` // degraded → normal transitions
}

// CheckIdentity verifies the two accounting identities, returning a
// descriptive error on the first violation.
func (c Counters) CheckIdentity() error {
	if got := c.Admitted + c.RejectedQueue + c.RejectedThrottle; got != c.Offered {
		return fmt.Errorf("serve: offered %d != admitted %d + rejected_queue %d + rejected_throttle %d",
			c.Offered, c.Admitted, c.RejectedQueue, c.RejectedThrottle)
	}
	if got := c.terminals(); got != c.Admitted {
		return fmt.Errorf("serve: admitted %d != completed %d + timed_out_queued %d + timed_out_served %d + shed %d",
			c.Admitted, c.Completed, c.TimedOutQueued, c.TimedOutServed, c.Shed)
	}
	return nil
}

// terminals counts terminal outcomes; every admitted request reaches one.
func (c Counters) terminals() uint64 {
	return c.Completed + c.TimedOutQueued + c.TimedOutServed + c.Shed
}

// GovernorConfig shapes the graceful-degradation governor: a recurring
// virtual-time tick that inspects queue depth and the window's
// deadline-miss rate, trips into degraded mode under sustained overload
// (shedding the queue down to RecoverDepth and shrinking request blocks
// by DegradedDiv), and recovers when both signals clear.
type GovernorConfig struct {
	WindowNs     int64 `json:"window_ns"`     // tick period; 0 disables the governor
	QueueHigh    int   `json:"queue_high"`    // depth at tick that trips degraded mode
	MissNum      int   `json:"miss_num"`      // trip when a window's timeouts/terminals >= MissNum/MissDen
	MissDen      int   `json:"miss_den"`      //
	RecoverDepth int   `json:"recover_depth"` // shed down to this depth on trip; recovery requires depth <= this
	DegradedDiv  int   `json:"degraded_div"`  // block-size divisor in degraded mode (>= 1)
}

// Config parameterizes one serving run over one simulator.
type Config struct {
	Seed        uint64 // drives retry jitter (arrivals/pages carry their own seeds)
	Requests    int    // arrivals to offer in the measured run
	BlockPages  int    // page accesses per request block
	Cost        CostModel
	QueueCap    int   // bounded FIFO capacity (hard cap)
	RefillNs    int64 // token bucket: ns per token; 0 disables throttling
	Burst       int64 // token bucket depth
	DeadlineNs  int64 // per-request deadline from arrival; 0 = none
	MaxAttempts int   // total service attempts per request (1 = no retries)
	RetryBaseNs int64 // backoff base: attempt k waits base<<(k-1) + jitter
	Governor    GovernorConfig
	FaultKey    string // serve-burst fault-injection key; "" disables the hook
}

// burstRun is how many back-to-back 1 ns arrivals a fired serve-burst
// fault injects — a spike roughly an admission queue deep.
const burstRun = 256

// event kinds, processed in (time, seq) order.
const (
	evArrival = iota
	evDeparture
	evRetry
	evGovTick
)

type event struct {
	at   int64
	seq  uint64 // FIFO tiebreak at equal timestamps
	kind uint8
	req  *request
}

type request struct {
	arriveNs   int64
	deadlineNs int64
	attempts   int
	failed     bool // last service attempt hit a failure IO
	next       *request

	// Lifecycle bookkeeping for the metrics layer. Written unconditionally
	// (branch-free stores; the freelist zeroes them on reuse) but only read
	// when a collector is armed, so armed and disarmed runs execute the
	// same event sequence.
	seq      uint64 // admission order, 1-based
	failIOs  uint64 // decoupling failure IOs across all attempts
	degraded bool   // any attempt ran in degraded mode
	rec      [metrics.MaxAttemptRecs]metrics.AttemptRec
}

// Sim is one deterministic serving run: a single-server queue whose
// server is an mm simulator. Construct with New, optionally Calibrate,
// then SetArrivals and Run.
type Sim struct {
	cfg Config
	alg mm.Algorithm
	gen workload.Generator // page-block source
	arr workload.ArrivalProcess
	rng *hashutil.RNG // retry jitter

	block    []uint64
	heap     []event
	eventSeq uint64
	queue    ringQueue
	free     *request

	now       int64
	busy      *request
	c         Counters
	failIOs   uint64   // failure IOs over the run; Counters has no field for them
	govMark   Counters // c at the governor's last tick
	lat       *hist.H
	met       *metrics.C // nil unless ArmMetrics
	degraded  bool
	burstLeft int

	meanServiceNs int64
	bkt           bucketState
	maxHeap       int
	started       bool
}

// New builds a Sim over one simulator; gen supplies the page blocks. The
// last two parameters are ignored and kept only so existing callers
// compile: the *mm.Scratch, because simulators own their batch buffers,
// and the *explain.Counters, because retries read failure IOs from the
// cost model (serviceBlock), so a serving run needs no attribution.
func New(cfg Config, a mm.Algorithm, gen workload.Generator, _ *mm.Scratch, _ *explain.Counters) (*Sim, error) {
	if cfg.Requests <= 0 || cfg.BlockPages <= 0 || cfg.QueueCap <= 0 {
		return nil, fmt.Errorf("serve: Requests, BlockPages, QueueCap must all be > 0 (got %d, %d, %d)",
			cfg.Requests, cfg.BlockPages, cfg.QueueCap)
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 1
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	if cfg.Governor.WindowNs > 0 {
		g := &cfg.Governor
		if g.DegradedDiv < 1 {
			g.DegradedDiv = 1
		}
		if g.MissDen <= 0 {
			g.MissNum, g.MissDen = 1, 5
		}
		if g.QueueHigh <= 0 {
			g.QueueHigh = cfg.QueueCap * 3 / 4
		}
		if g.RecoverDepth < 0 || g.RecoverDepth >= g.QueueHigh {
			g.RecoverDepth = g.QueueHigh / 4
		}
	}
	return &Sim{
		cfg:   cfg,
		alg:   a,
		gen:   gen,
		rng:   hashutil.NewRNG(hashutil.Mix64(cfg.Seed) ^ 0x5e27e_b0c5),
		block: make([]uint64, cfg.BlockPages),
		queue: newRingQueue(cfg.QueueCap),
		lat:   &hist.H{},
	}, nil
}

// SetArrivals installs the open-loop arrival process. Callers typically
// Calibrate first, derive the offered rate from the measured capacity,
// and then construct the process.
func (s *Sim) SetArrivals(p workload.ArrivalProcess) { s.arr = p }

// The post-calibration setters below rescale the latency-sensitive knobs
// once the capacity is known — deadlines, governor windows, and backoffs
// are only meaningful as multiples of the mean service time. All must be
// called before Start.

// SetDeadlineNs sets the per-request deadline (0 disables).
func (s *Sim) SetDeadlineNs(d int64) { s.cfg.DeadlineNs = d }

// SetGovernorWindowNs sets the governor tick period (0 disables).
func (s *Sim) SetGovernorWindowNs(w int64) { s.cfg.Governor.WindowNs = w }

// SetRetryBaseNs sets the retry backoff base.
func (s *Sim) SetRetryBaseNs(b int64) { s.cfg.RetryBaseNs = b }

// SetTokenBucket sets the admission token bucket (refillNs 0 disables).
func (s *Sim) SetTokenBucket(refillNs, burst int64) {
	s.cfg.RefillNs, s.cfg.Burst = refillNs, burst
}

// MeanServiceNs returns the calibrated mean, 0 before Calibrate.
func (s *Sim) MeanServiceNs() int64 { return s.meanServiceNs }

// Calibrate runs n request blocks closed-loop (back to back, no queueing)
// through the simulator, returning the observed mean service time in ns.
// It doubles as warmup: the simulator state it leaves behind is the state
// the measured open-loop run starts from, per the paper's methodology.
func (s *Sim) Calibrate(n int) int64 {
	if n <= 0 {
		n = 1
	}
	var total int64
	for i := 0; i < n; i++ {
		ns, _ := s.serviceBlock(s.cfg.BlockPages)
		total += ns
	}
	mean := total / int64(n)
	if mean < 1 {
		mean = 1
	}
	s.meanServiceNs = mean
	return mean
}

// serviceBlock draws one page block, services it on the simulator, and
// prices the cost delta. failIOs is the number of failure IOs the attempt
// generated (non-zero triggers the retry path). Under Theorem 4 a request
// to a page in the failure set F costs one IO plus one decoding miss, and
// no algorithm charges a decoding miss anywhere else, so the block's
// decoding-miss delta is its failure-IO count.
func (s *Sim) serviceBlock(pages int) (ns int64, failIOs uint64) {
	buf := s.block[:pages]
	workload.Fill(s.gen, buf)
	before := s.alg.Costs()
	s.alg.AccessBatch(buf)
	after := s.alg.Costs()
	d := mm.Costs{
		IOs:            after.IOs - before.IOs,
		TLBMisses:      after.TLBMisses - before.TLBMisses,
		DecodingMisses: after.DecodingMisses - before.DecodingMisses,
		Accesses:       after.Accesses - before.Accesses,
	}
	return s.cfg.Cost.ServiceNs(d), d.DecodingMisses
}

// Start seeds the event loop: the first arrival and, when the governor is
// enabled, its first tick. Run calls it; tests stepping manually call it
// once before Step.
func (s *Sim) Start() {
	if s.started {
		return
	}
	s.started = true
	if s.arr == nil {
		// No arrival process: a degenerate but legal run with zero offered
		// load; the loop drains immediately.
		return
	}
	s.push(event{at: s.arr.NextDelayNs(), kind: evArrival})
	if s.cfg.Governor.WindowNs > 0 {
		s.push(event{at: s.cfg.Governor.WindowNs, kind: evGovTick})
	}
}

// Step processes one event, returning false when the loop has drained.
func (s *Sim) Step() bool {
	if !s.started {
		s.Start()
	}
	if len(s.heap) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.at
	if s.met != nil {
		// Close any metrics windows the clock jumped over before applying
		// this event's effects: an event at t belongs to t's own window,
		// and between events the gauges are constant, so sampling them
		// here is exact for every crossed window edge.
		s.met.Advance(s.now, s.gauges())
	}
	switch e.kind {
	case evArrival:
		s.arrive()
	case evDeparture:
		s.depart(e.req)
	case evRetry:
		s.retry(e.req)
	case evGovTick:
		s.govTick()
	}
	return true
}

// Run drives the loop to completion and returns the result. It never
// blocks on anything external: overload resolves through rejection,
// shedding, and deadlines, in bounded memory.
func (s *Sim) Run() Result {
	s.Start()
	for s.Step() {
	}
	return s.Result()
}

// arrive handles one open-loop arrival: schedule the next one, then try
// to admit this one through the token bucket and the bounded queue.
func (s *Sim) arrive() {
	s.c.Offered++
	if s.c.Offered < uint64(s.cfg.Requests) {
		gap := int64(1)
		if s.burstLeft > 0 {
			s.burstLeft--
		} else {
			if s.cfg.FaultKey != "" && faultinject.Armed() &&
				faultinject.Fire(faultinject.ServeBurst, s.cfg.FaultKey) {
				s.burstLeft = burstRun
			} else {
				gap = s.arr.NextDelayNs()
			}
		}
		s.push(event{at: s.now + gap, kind: evArrival})
	}

	if !s.takeToken() {
		s.c.RejectedThrottle++
		return
	}
	if s.queue.full() {
		s.c.RejectedQueue++
		return
	}
	s.c.Admitted++
	r := s.alloc()
	r.arriveNs = s.now
	r.seq = s.c.Admitted
	r.rec[0].EnqueueNs = s.now
	r.deadlineNs = math.MaxInt64
	if s.cfg.DeadlineNs > 0 {
		r.deadlineNs = s.now + s.cfg.DeadlineNs
	}
	s.queue.push(r)
	s.startService()
}

// startService pulls queued requests into the (single) server while it is
// idle, discarding entries whose deadline passed while they waited.
func (s *Sim) startService() {
	for s.busy == nil {
		r := s.queue.pop()
		if r == nil {
			return
		}
		if s.now > r.deadlineNs {
			s.c.TimedOutQueued++
			s.observeTerminal(r, OutcomeTimedOutQueued)
			s.freeReq(r)
			continue
		}
		pages := s.cfg.BlockPages
		if s.degraded {
			if div := s.cfg.Governor.DegradedDiv; div > 1 {
				pages = pages / div
				if pages < 1 {
					pages = 1
				}
			}
			s.c.Degraded++
			r.degraded = true
		}
		r.attempts++
		ns, failIOs := s.serviceBlock(pages)
		r.failed = failIOs > 0
		r.failIOs += failIOs
		s.failIOs += failIOs
		if i := r.attempts - 1; i < metrics.MaxAttemptRecs {
			r.rec[i].StartNs = s.now
			r.rec[i].EndNs = s.now + ns
		}
		s.busy = r
		s.push(event{at: s.now + ns, kind: evDeparture, req: r})
	}
}

// depart finishes the in-service request: timeout check, then either a
// retry (failure IO, budget left, deadline not blown) or completion.
func (s *Sim) depart(r *request) {
	s.busy = nil
	switch {
	case s.now > r.deadlineNs:
		s.c.TimedOutServed++
		s.observeTerminal(r, OutcomeTimedOutServed)
		s.freeReq(r)
	case r.failed && r.attempts < s.cfg.MaxAttempts:
		s.c.Retries++
		s.push(event{at: s.now + s.backoff(r.attempts), kind: evRetry, req: r})
	default:
		if r.failed {
			s.c.RetryExhausted++
		}
		s.c.Completed++
		s.met.Complete(s.now - r.arriveNs)
		s.lat.Observe(s.now - r.arriveNs)
		s.observeTerminal(r, OutcomeCompleted)
		s.freeReq(r)
	}
	s.startService()
}

// retry re-enqueues an already-admitted request after its backoff. A full
// queue at that moment is terminal shedding — under overload, retrying
// traffic is the first to go.
func (s *Sim) retry(r *request) {
	if s.queue.full() {
		s.c.Shed++
		s.observeTerminal(r, OutcomeShed)
		s.freeReq(r)
		return
	}
	if i := r.attempts; i < metrics.MaxAttemptRecs {
		r.rec[i].EnqueueNs = s.now
	}
	s.queue.push(r)
	s.startService()
}

// backoff returns the exponential backoff with deterministic jitter for a
// retry after the attempts-th service attempt.
func (s *Sim) backoff(attempts int) int64 {
	base := s.cfg.RetryBaseNs
	if base <= 0 {
		base = 1000
	}
	shift := uint(attempts - 1)
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	return d + int64(s.rng.Uint64n(uint64(base)))
}

// govTick is the governor: trip into degraded mode on sustained overload
// (queue depth or window deadline-miss rate), shedding the queue down to
// RecoverDepth; recover when both signals clear for a window. The
// window's deadline misses and terminal outcomes are the growth of
// Counters since the last tick's govMark, which the tick takes after its
// own shedding.
func (s *Sim) govTick() {
	g := s.cfg.Governor
	depth := s.queue.len()
	c, m := &s.c, &s.govMark
	done := c.terminals() - m.terminals()
	misses := c.TimedOutQueued + c.TimedOutServed - m.TimedOutQueued - m.TimedOutServed
	missHigh := done > 0 && misses*uint64(g.MissDen) >= done*uint64(g.MissNum)
	if !s.degraded {
		if depth >= g.QueueHigh || missHigh {
			s.degraded = true
			s.c.GovernorTrips++
			s.met.Governor(s.now, true)
			for s.queue.len() > g.RecoverDepth {
				r := s.queue.pop()
				s.c.Shed++
				s.observeTerminal(r, OutcomeShed)
				s.freeReq(r)
			}
		}
	} else if depth <= g.RecoverDepth && !missHigh {
		s.degraded = false
		s.c.GovernorRecovers++
		s.met.Governor(s.now, false)
	}
	s.govMark = s.c
	// Reschedule while anything remains in flight; an empty heap here
	// means arrivals, service, and retries have all drained.
	if len(s.heap) > 0 {
		s.push(event{at: s.now + g.WindowNs, kind: evGovTick})
	}
}

// Result snapshots the run. Valid once Step returns false (or Run
// returns).
func (s *Sim) Result() Result {
	return Result{
		Counters:      s.c,
		MeanServiceNs: s.meanServiceNs,
		HorizonNs:     s.now,
		MaxQueueDepth: s.queue.peak,
		MaxHeapLen:    s.maxHeap,
		Latency:       s.lat,
		Metrics:       s.MetricsRecord(),
	}
}

// Result is the outcome of one serving run.
type Result struct {
	Counters      Counters
	MeanServiceNs int64           // calibrated closed-loop mean service ns (0 if not calibrated)
	HorizonNs     int64           // virtual time of the last processed event
	MaxQueueDepth int             // peak bounded-FIFO depth (≤ QueueCap)
	MaxHeapLen    int             // peak event-heap length (bounded-memory witness)
	Latency       *hist.H         // sojourn ns of completed requests
	Metrics       *metrics.Record // windowed telemetry; nil unless ArmMetrics
}

// GoodputPerSec is completed requests per virtual second.
func (r Result) GoodputPerSec() float64 {
	if r.HorizonNs <= 0 {
		return 0
	}
	return float64(r.Counters.Completed) / (float64(r.HorizonNs) / 1e9)
}

// event heap: a hand-rolled binary min-heap on (at, seq), value-typed so
// pushes in steady state reuse the slice's capacity.

func evLess(a, b event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (s *Sim) push(e event) {
	e.seq = s.eventSeq
	s.eventSeq++
	s.heap = append(s.heap, e)
	if n := len(s.heap); n > s.maxHeap {
		s.maxHeap = n
	}
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(s.heap[i], s.heap[p]) {
			break
		}
		s.heap[i], s.heap[p] = s.heap[p], s.heap[i]
		i = p
	}
}

func (s *Sim) pop() event {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the *request reference
	s.heap = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && evLess(h[l], h[m]) {
			m = l
		}
		if r < n && evLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// token bucket, integer fixed-point: one token per RefillNs, capacity
// Burst, lazily refilled from the virtual clock.

type bucketState struct {
	tokens int64
	lastNs int64
	primed bool
}

func (s *Sim) takeToken() bool {
	if s.cfg.RefillNs <= 0 {
		return true
	}
	if !s.bkt.primed {
		s.bkt.primed = true
		s.bkt.tokens = s.cfg.Burst
		s.bkt.lastNs = s.now
	}
	if add := (s.now - s.bkt.lastNs) / s.cfg.RefillNs; add > 0 {
		s.bkt.tokens += add
		s.bkt.lastNs += add * s.cfg.RefillNs
		if s.bkt.tokens > s.cfg.Burst {
			s.bkt.tokens = s.cfg.Burst
		}
	}
	if s.bkt.tokens > 0 {
		s.bkt.tokens--
		return true
	}
	return false
}

// request freelist.

func (s *Sim) alloc() *request {
	if r := s.free; r != nil {
		s.free = r.next
		*r = request{}
		return r
	}
	return &request{}
}

func (s *Sim) freeReq(r *request) {
	r.next = s.free
	s.free = r
}

// fixed-capacity FIFO ring of requests, with its high-water mark.

type ringQueue struct {
	buf  []*request
	head int
	n    int
	peak int
}

func newRingQueue(capacity int) ringQueue {
	return ringQueue{buf: make([]*request, capacity)}
}

func (q *ringQueue) len() int   { return q.n }
func (q *ringQueue) full() bool { return q.n == len(q.buf) }

func (q *ringQueue) push(r *request) {
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
	q.peak = max(q.peak, q.n)
}

func (q *ringQueue) pop() *request {
	if q.n == 0 {
		return nil
	}
	r := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r
}
