package experiments

import (
	"fmt"
	"time"

	"addrxlat/internal/core"
	"addrxlat/internal/event"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/serve"
	"addrxlat/internal/workload"
)

// serveEpoch versions the serving layer for cache keys: bump it whenever
// the event loop, cost model, or governor semantics change for the same
// configuration.
const serveEpoch = 1

// The serve experiment table ids, shared by cmd/figures and the tests.
const (
	ServeGoodputID = "sv-goodput"
	ServeLatencyID = "sv-latency"
	ServeSLOID     = "sv-slo"
)

// Knobs of the serving machine, all expressed as multiples of the
// calibrated mean service time so one sweep definition holds at every
// Scale (absolute nanoseconds would starve or trivialize the queue as
// SpaceDiv/AccessDiv move the service time).
const (
	serveQueueCap     = 256 // bounded FIFO capacity
	serveMaxAttempts  = 3   // total service attempts per request
	serveDeadlineMul  = 80  // deadline = 80 × mean service
	serveWindowMul    = 20  // governor window = 20 × mean service
	serveRetryMul     = 4   // retry backoff base = 4 × mean service
	serveRefillDiv    = 4   // token refill = mean/4 (rate 4× capacity)
	serveQueueHigh    = 192 // governor queue-depth trip
	serveRecoverDepth = 48  // governor shed/recovery target
	serveDegradedDiv  = 4   // degraded-mode block divisor
	serveMissNum      = 1   // deadline-miss trip ratio: 1/5 of a window's
	serveMissDen      = 5   // terminal outcomes missing their deadline
)

// Metrics-layer policy, again in multiples of the calibrated mean
// service time. The window is wide enough (64×mean ≈ tens of requests at
// capacity) for a meaningful per-window p99, narrow enough that a run
// spans dozens of windows; the SLO budget sits midway between the p50 of
// a healthy cell and the deadline (80×mean), so underload passes and
// overload burns; the burn ceiling is the SRE-conventional 5%.
const (
	serveMetricsWindowMul = 64 // metrics window = 64 × mean service
	serveSLOBudgetMul     = 40 // SLO p99 budget = 40 × mean service
	serveExemplarK        = 5  // slowest-request exemplars kept per cell
	serveSLOBurnNum       = 1  // SLO met iff violating windows ≤ 1/20
	serveSLOBurnDen       = 20 // of all windows (5% burn-rate ceiling)
)

// serveLoads is the offered-load grid, as multiples of each cell's
// calibrated capacity; 2.0 and 3.0 are the mandated ≥ 2× overload points
// that must complete via deterministic shedding.
func serveLoads() []float64 { return []float64{0.5, 0.8, 1.2, 2.0, 3.0} }

// serveAlg names one algorithm column of the sweep; build must return a
// fresh simulator (serving mutates paging state, so cells never share).
type serveAlg struct {
	name  string
	build func(seed uint64) (mm.Algorithm, error)
}

// serveSpec is the resolved serving machine: geometry after scaling, the
// request-block shape, and the algorithm roster.
type serveSpec struct {
	table        string // experiment id, for fault keys and progress rows
	ramPages     uint64
	virtualPages uint64
	hotPages     uint64
	tlbEntries   int
	blockPages   int
	warmupReq    int // closed-loop calibration requests (doubles as warmup)
	measuredReq  int // open-loop offered arrivals
	loads        []float64
	algs         []serveAlg
	seed         uint64
	metrics      bool // arm the per-cell window collector
}

// buildServeSpec resolves the serving machine at the given scale: a
// bimodal tenant (90% of accesses in a hot set, the rest over a VA 4× the
// RAM) against four translation schemes — classical paging, static huge
// pages, and the decoupled scheme with both the Iceberg (Theorem 3) and
// single-choice (Theorem 1) allocators. The single-choice column is the
// one that overflows buckets under pressure, so the failure-IO retry path
// shows up in the tables, not just in unit tests.
func buildServeSpec(table string, s Scale, seed uint64) (*serveSpec, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	sp := &serveSpec{
		table:        table,
		ramPages:     s.pages(1 * paperGiB),
		virtualPages: s.pages(4 * paperGiB),
		hotPages:     s.pages(64 << 20),
		tlbEntries:   s.entries(paperTLBEntries, 16),
		blockPages:   256,
		loads:        serveLoads(),
		seed:         seed,
		metrics:      s.ServeMetrics,
	}
	if n := s.accesses(20_000_000) / sp.blockPages; n > 300 {
		sp.warmupReq = n
	} else {
		sp.warmupReq = 300
	}
	if n := s.accesses(80_000_000) / sp.blockPages; n > 1200 {
		sp.measuredReq = n
	} else {
		sp.measuredReq = 1200
	}
	ram, vp, tlb := sp.ramPages, sp.virtualPages, sp.tlbEntries
	sp.algs = []serveAlg{
		{name: "hugepage(h=1)", build: func(seed uint64) (mm.Algorithm, error) {
			return mm.NewHugePage(mm.HugePageConfig{HugePageSize: 1, TLBEntries: tlb, RAMPages: ram, Seed: seed})
		}},
		{name: "hugepage(h=64)", build: func(seed uint64) (mm.Algorithm, error) {
			return mm.NewHugePage(mm.HugePageConfig{HugePageSize: 64, TLBEntries: tlb, RAMPages: ram, Seed: seed})
		}},
		{name: "decoupled(iceberg)", build: func(seed uint64) (mm.Algorithm, error) {
			return mm.NewDecoupled(mm.DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: ram, VirtualPages: vp, TLBEntries: tlb, ValueBits: 64, Seed: seed})
		}},
		{name: "decoupled(single)", build: func(seed uint64) (mm.Algorithm, error) {
			return mm.NewDecoupled(mm.DecoupledConfig{Alloc: core.SingleChoice, RAMPages: ram, VirtualPages: vp, TLBEntries: tlb, ValueBits: 64, Seed: seed})
		}},
	}
	return sp, nil
}

// cellKey is the canonical cache key for one (algorithm, load) point.
// Everything that determines the point is in the key — geometry,
// windows, block shape, admission/governor multipliers, scale divisors,
// seed — but NOT the table id: sv-goodput and sv-latency project the same
// sweep, so they share cells.
func (sp *serveSpec) cellKey(s Scale, alg string, load float64) string {
	key := fmt.Sprintf("serve|epoch=%d|alg=%s|load=%g|V=%d|P=%d|hot=%d|tlb=%d|block=%d|warm=%d|req=%d|"+
		"qcap=%d|att=%d|dl=%d|win=%d|retry=%d|refill=%d|qhigh=%d|rec=%d|deg=%d|miss=%d/%d|space=%d|acc=%d|seed=%d",
		serveEpoch, alg, load, sp.virtualPages, sp.ramPages, sp.hotPages, sp.tlbEntries, sp.blockPages,
		sp.warmupReq, sp.measuredReq, serveQueueCap, serveMaxAttempts, serveDeadlineMul, serveWindowMul,
		serveRetryMul, serveRefillDiv, serveQueueHigh, serveRecoverDepth, serveDegradedDiv,
		serveMissNum, serveMissDen, s.SpaceDiv, s.AccessDiv, sp.seed)
	if sp.metrics {
		// Armed cells carry the window stream in their cached point, so
		// they form a separate cache family from bare cells; the base
		// Point fields are identical either way (the collector only
		// observes), which is exactly what TestServeMetricsByteIdentical
		// pins.
		key += fmt.Sprintf("|met=win%d,slo%d,k%d", serveMetricsWindowMul, serveSLOBudgetMul, serveExemplarK)
	}
	return key
}

// runCell computes one (algorithm, load) point: build a fresh simulator,
// calibrate closed-loop (which is also the warmup), scale the
// latency-sensitive knobs to the measured capacity, then run the
// open-loop event loop to completion. A panic (algorithm bug or injected
// fault) is recovered into the returned error, degrading the point to a
// footnoted error row.
func (sp *serveSpec) runCell(s Scale, ai, li int) (pt serve.Point, err error) {
	a := sp.algs[ai]
	load := sp.loads[li]
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: serve cell %s|load=%g panicked: %v", a.name, load, r)
		}
	}()

	// Seeds derive from the cell's grid position under the sweep seed, so
	// cells are independent and any execution order (or worker count)
	// yields identical points.
	base := hashutil.Hash64(sp.seed, uint64(ai)<<32|uint64(li))
	alg, err := a.build(base)
	if err != nil {
		return serve.Point{}, fmt.Errorf("experiments: serve cell %s: %w", a.name, err)
	}
	// Explain is always on for serve cells: the retry trigger is the
	// explain taxonomy's failure-IO counter. Attribution never mutates
	// algorithm state, so it cannot perturb service times.
	ec := mm.EnableExplain(alg)
	gen, err := workload.NewBimodal(sp.hotPages, sp.virtualPages, 0.9, hashutil.Mix64(base+1))
	if err != nil {
		return serve.Point{}, err
	}
	sim, err := serve.New(serve.Config{
		Seed:        hashutil.Mix64(base + 2),
		Requests:    sp.measuredReq,
		BlockPages:  sp.blockPages,
		QueueCap:    serveQueueCap,
		MaxAttempts: serveMaxAttempts,
		Governor: serve.GovernorConfig{
			WindowNs:     1, // rescaled below; >0 arms the governor
			QueueHigh:    serveQueueHigh,
			MissNum:      serveMissNum,
			MissDen:      serveMissDen,
			RecoverDepth: serveRecoverDepth,
			DegradedDiv:  serveDegradedDiv,
		},
		FaultKey: fmt.Sprintf("%s|%s|load=%g", sp.table, a.name, load),
	}, alg, gen, nil, ec)
	if err != nil {
		return serve.Point{}, err
	}
	mean := sim.Calibrate(sp.warmupReq)
	sim.SetDeadlineNs(serveDeadlineMul * mean)
	sim.SetGovernorWindowNs(serveWindowMul * mean)
	sim.SetRetryBaseNs(serveRetryMul * mean)
	sim.SetTokenBucket(mean/serveRefillDiv+1, serveQueueCap)
	sim.SetArrivals(workload.NewPoisson(hashutil.Mix64(base+3), float64(mean)/load))
	if sp.metrics {
		sim.ArmMetrics(metrics.Config{
			WidthNs:   serveMetricsWindowMul * mean,
			BudgetNs:  serveSLOBudgetMul * mean,
			Exemplars: serveExemplarK,
		})
	}
	res := sim.Run()
	if err := res.Counters.CheckIdentity(); err != nil {
		return serve.Point{}, err
	}
	return serve.PointFrom(a.name, load, res), nil
}

// serveSweep computes every (algorithm, load) point of the grid, cache
// first, fanning the misses across the scale's workers. Points land in
// grid order regardless of execution order. cellErrs holds per-cell
// failures (footnote rows); the error return is sweep-fatal
// (cancellation).
func serveSweep(sp *serveSpec, s Scale) (pts []serve.Point, cellErrs []error, err error) {
	n := len(sp.algs) * len(sp.loads)
	pts = make([]serve.Point, n)
	cellErrs = make([]error, n)
	// A planned serve-burst fault changes results by design, so neither
	// read nor write the cache while one is armed — a clean run must
	// never see a burst-perturbed point.
	if faultinject.Planned(faultinject.ServeBurst) {
		s.Cache = nil
	}
	err = s.forEach(n, func(i int) error {
		ai, li := i/len(sp.loads), i%len(sp.loads)
		a, load := sp.algs[ai], sp.loads[li]
		// The sweep-kill cadence for serve tables is the cell boundary
		// (cells, not chunks, are the unit of resumable work here); the
		// key is the table id, matching the row-name convention of the
		// streaming drivers.
		if faultinject.Armed() && faultinject.Fire(faultinject.SweepKill, sp.table) {
			faultinject.Kill(fmt.Sprintf("serve table %s, cell %s|load=%g", sp.table, a.name, load))
		}
		key := sp.cellKey(s, a.name, load)
		if pt, ok := cacheGet[serve.Point](s, key); ok {
			pts[i] = pt
			return nil
		}
		var start time.Time
		if s.Observer != nil {
			start = time.Now()
		}
		pt, cerr := sp.runCell(s, ai, li)
		if cerr != nil {
			cellErrs[i] = cerr
			return nil
		}
		pts[i] = pt
		if s.Observer != nil {
			now := time.Now()
			s.Observer.Observe(event.Event{Kind: event.KindPhase, Row: sp.table, Phase: event.PhaseServe,
				Alg: fmt.Sprintf("%s|load=%g", a.name, load), At: now, Accesses: sp.measuredReq, Elapsed: now.Sub(start)})
		}
		s.cachePut(key, pt)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if s.Observer != nil {
		rec := sp.record(pts, cellErrs)
		s.Observer.Observe(event.Event{Kind: event.KindServe, Row: sp.table, At: time.Now(), Serve: &rec})
	}
	return pts, cellErrs, nil
}

// record assembles the manifest-facing sweep record: the offered-load
// grid, the full admission/governor configuration, and every computed
// point (failed cells are simply absent).
func (sp *serveSpec) record(pts []serve.Point, cellErrs []error) serve.SweepRecord {
	rec := serve.SweepRecord{
		Table:       sp.table,
		Workload:    fmt.Sprintf("bimodal(hot=%d,V=%d,p=0.9)", sp.hotPages, sp.virtualPages),
		Arrivals:    "poisson",
		Loads:       sp.loads,
		Requests:    sp.measuredReq,
		Warmup:      sp.warmupReq,
		BlockPages:  sp.blockPages,
		QueueCap:    serveQueueCap,
		DeadlineNs:  serveDeadlineMul, // recorded as multiples of mean service
		MaxAttempts: serveMaxAttempts,
		RetryBaseNs: serveRetryMul,
		Cost:        serve.DefaultCostModel(),
		Governor: serve.GovernorConfig{
			WindowNs:     serveWindowMul,
			QueueHigh:    serveQueueHigh,
			MissNum:      serveMissNum,
			MissDen:      serveMissDen,
			RecoverDepth: serveRecoverDepth,
			DegradedDiv:  serveDegradedDiv,
		},
	}
	if sp.metrics {
		rec.MetricsWindowMul = serveMetricsWindowMul
		rec.SLOBudgetMul = serveSLOBudgetMul
		rec.ExemplarK = serveExemplarK
	}
	for i, pt := range pts {
		if cellErrs[i] == nil {
			rec.Points = append(rec.Points, pt)
		}
	}
	return rec
}

// ServeGoodput regenerates the goodput-vs-offered-load table: for each
// algorithm and offered load (as a multiple of its calibrated capacity),
// the achieved goodput and the full shed/timeout/retry/degrade taxonomy.
// The ≥ 2× points complete via deterministic shedding — bounded queue,
// bounded event heap — rather than collapsing (pinned by
// TestServeOverloadBoundedSweep).
func ServeGoodput(s Scale, seed uint64) (*Table, error) {
	sp, err := buildServeSpec(ServeGoodputID, s, seed)
	if err != nil {
		return nil, err
	}
	pts, cellErrs, err := serveSweep(sp, s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: ServeGoodputID,
		Caption: fmt.Sprintf(
			"Goodput vs offered load (bimodal tenant, V=%d pages, RAM=%d pages, TLB=%d entries, blocks of %d pages, %d offered requests, queue cap %d, deadline %d×mean)",
			sp.virtualPages, sp.ramPages, sp.tlbEntries, sp.blockPages, sp.measuredReq, serveQueueCap, serveDeadlineMul),
		Columns: []string{"offered_load", "alg", "offered_per_sec", "goodput_per_sec",
			"admitted", "completed", "rejected", "shed", "timed_out", "retries", "degraded"},
	}
	sp.forGrid(pts, cellErrs, t, func(pt serve.Point) []interface{} {
		c := pt.Counters
		return []interface{}{
			pt.Load, pt.Alg,
			pt.Load * 1e9 / float64(pt.MeanServiceNs),
			pt.GoodputPerSec,
			c.Admitted, c.Completed,
			c.RejectedQueue + c.RejectedThrottle,
			c.Shed,
			c.TimedOutQueued + c.TimedOutServed,
			c.Retries, c.Degraded,
		}
	})
	return t, nil
}

// ServeLatency regenerates the per-algorithm latency table: p50/p99/p999
// sojourn time of completed requests at each offered load, plus the
// calibrated mean service time the load grid is anchored to.
func ServeLatency(s Scale, seed uint64) (*Table, error) {
	sp, err := buildServeSpec(ServeLatencyID, s, seed)
	if err != nil {
		return nil, err
	}
	pts, cellErrs, err := serveSweep(sp, s)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: ServeLatencyID,
		Caption: fmt.Sprintf(
			"Request latency quantiles vs offered load (bimodal tenant, V=%d pages, RAM=%d pages, TLB=%d entries, blocks of %d pages, %d offered requests)",
			sp.virtualPages, sp.ramPages, sp.tlbEntries, sp.blockPages, sp.measuredReq),
		Columns: []string{"offered_load", "alg", "p50_ns", "p99_ns", "p999_ns",
			"mean_service_ns", "max_queue_depth"},
	}
	sp.forGrid(pts, cellErrs, t, func(pt serve.Point) []interface{} {
		return []interface{}{
			pt.Load, pt.Alg, pt.P50Ns, pt.P99Ns, pt.P999Ns,
			pt.MeanServiceNs, pt.MaxQueueDepth,
		}
	})
	return t, nil
}

// ServeSLO regenerates the SLO-curve table (sv3): for each algorithm and
// offered load, the windowed-p99 verdict against the fixed tail-latency
// budget (40 × that cell's calibrated mean service time) — violating
// windows, burn rate, longest violation streak — and, per algorithm, the
// maximum offered load in the grid that still met the SLO (≤ 5% of
// windows violating). This is the paper-level "what load can each
// translation scheme sustain under a tail budget" question; the window
// stream behind every row rides in the manifest and the
// <table>.serve.metrics.tsv dump. The sweep always runs with collectors
// armed; cells are cached like sv1/sv2 (a separate armed-key family).
func ServeSLO(s Scale, seed uint64) (*Table, error) {
	sp, err := buildServeSpec(ServeSLOID, s, seed)
	if err != nil {
		return nil, err
	}
	sp.metrics = true
	pts, cellErrs, err := serveSweep(sp, s)
	if err != nil {
		return nil, err
	}
	// Max sustainable load per algorithm: the largest grid load whose
	// cell met the SLO. 0 means no load in the grid qualified.
	sustainable := make(map[string]float64, len(sp.algs))
	for ai, a := range sp.algs {
		for li, load := range sp.loads {
			i := ai*len(sp.loads) + li
			if cellErrs[i] != nil || pts[i].Metrics == nil {
				continue
			}
			if pts[i].Metrics.SLO.Met(serveSLOBurnNum, serveSLOBurnDen) && load > sustainable[a.name] {
				sustainable[a.name] = load
			}
		}
	}
	t := &Table{
		Name: ServeSLOID,
		Caption: fmt.Sprintf(
			"SLO curve: windowed p99 vs a %d×mean-service budget (windows of %d×mean, SLO met iff ≤ %d/%d windows violate; bimodal tenant, V=%d pages, RAM=%d pages, TLB=%d entries, %d offered requests)",
			serveSLOBudgetMul, serveMetricsWindowMul, serveSLOBurnNum, serveSLOBurnDen,
			sp.virtualPages, sp.ramPages, sp.tlbEntries, sp.measuredReq),
		Columns: []string{"offered_load", "alg", "goodput_per_sec", "p99_ns", "budget_ns",
			"windows", "violations", "burn_rate_pct", "max_streak", "slo_ok", "max_sustainable_load"},
	}
	sp.forGrid(pts, cellErrs, t, func(pt serve.Point) []interface{} {
		m := pt.Metrics
		if m == nil {
			// A cell computed without its window stream (impossible via
			// this sweep, defensive against hand-built caches) degrades
			// like an error row.
			return []interface{}{pt.Load, pt.Alg, pt.GoodputPerSec, pt.P99Ns,
				"error", "error", "error", "error", "error", "error", "error"}
		}
		return []interface{}{
			pt.Load, pt.Alg, pt.GoodputPerSec, pt.P99Ns, m.SLO.BudgetNs,
			m.SLO.Windows, m.SLO.Violations, m.SLO.BurnRatePct(), m.SLO.MaxStreak,
			m.SLO.Met(serveSLOBurnNum, serveSLOBurnDen), sustainable[pt.Alg],
		}
	})
	return t, nil
}

// forGrid renders the grid in (load, algorithm) order — rows group by
// offered load so the goodput curve reads top to bottom — degrading
// failed cells to footnoted error rows exactly like the Fig1 tables.
func (sp *serveSpec) forGrid(pts []serve.Point, cellErrs []error, t *Table, row func(serve.Point) []interface{}) {
	for li, load := range sp.loads {
		for ai, a := range sp.algs {
			i := ai*len(sp.loads) + li
			if cellErrs[i] != nil {
				cells := []interface{}{load, a.name}
				for len(cells) < len(t.Columns) {
					cells = append(cells, "error")
				}
				t.AddRow(cells...)
				t.AddNote("cell %s|load=%g failed: %v", a.name, load, cellErrs[i])
				continue
			}
			t.AddRow(row(pts[i])...)
		}
	}
}
