package main

import (
	"fmt"
	"slices"

	"addrxlat/internal/core"
	"addrxlat/internal/experiments"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/metrics"
	"addrxlat/internal/mm"
	"addrxlat/internal/serve"
	"addrxlat/internal/workload"
	"addrxlat/internal/xtrace"
)

// The serving machine's knobs, restated from the experiments package's
// serve sweep: multiples of each cell's calibrated mean service time.
const (
	svQueueCap     = 256
	svMaxAttempts  = 3
	svDeadlineMul  = 80
	svWindowMul    = 20
	svRetryMul     = 4
	svRefillDiv    = 4
	svQueueHigh    = 192
	svRecoverDepth = 48
	svDegradedDiv  = 4
	svMissNum      = 1
	svMissDen      = 5
	svBlockPages   = 256
	svMetricsWin   = 64
	svSLOBudget    = 40
	svExemplars    = 5
	svBurnNum      = 1
	svBurnDen      = 20
	svStepBlock    = 256 // Step calls timed per interval
)

var svLoads = []float64{0.5, 0.8, 1.2, 2.0, 3.0}

// serveMachine is the serve sweep's geometry at one scale.
type serveMachine struct {
	ram, virt, hot uint64
	tlb            int
	warmupReq      int
	measuredReq    int
}

func buildServeMachine(s experiments.Scale) serveMachine {
	m := serveMachine{
		ram:  scalePages(s, gib),
		virt: scalePages(s, 4*gib),
		hot:  scalePages(s, 64<<20),
		tlb:  scaleEntries(s, 1536, 16),
	}
	m.warmupReq = max(scaleAccesses(s, 20_000_000)/svBlockPages, 300)
	m.measuredReq = max(scaleAccesses(s, 80_000_000)/svBlockPages, 1200)
	return m
}

// serveAlg is one algorithm column of the sweep.
type serveAlg struct {
	name  string
	build func(seed uint64) (mm.Algorithm, error)
}

// algs is the sweep's algorithm roster, in column order.
func (m serveMachine) algs() []serveAlg {
	return []serveAlg{
		{"hugepage(h=1)", func(seed uint64) (mm.Algorithm, error) {
			return mm.NewHugePage(mm.HugePageConfig{HugePageSize: 1, TLBEntries: m.tlb, RAMPages: m.ram, Seed: seed})
		}},
		{"hugepage(h=64)", func(seed uint64) (mm.Algorithm, error) {
			return mm.NewHugePage(mm.HugePageConfig{HugePageSize: 64, TLBEntries: m.tlb, RAMPages: m.ram, Seed: seed})
		}},
		{"decoupled(iceberg)", func(seed uint64) (mm.Algorithm, error) {
			return mm.NewDecoupled(mm.DecoupledConfig{Alloc: core.IcebergAlloc, RAMPages: m.ram, VirtualPages: m.virt, TLBEntries: m.tlb, ValueBits: 64, Seed: seed})
		}},
		{"decoupled(single)", func(seed uint64) (mm.Algorithm, error) {
			return mm.NewDecoupled(mm.DecoupledConfig{Alloc: core.SingleChoice, RAMPages: m.ram, VirtualPages: m.virt, TLBEntries: m.tlb, ValueBits: 64, Seed: seed})
		}},
	}
}

// serveLedger collects the serve replay's layer timings. cur* hold the
// time booked since the last span, so each Step interval's span can show
// how much of it was mm and workload work.
type serveLedger struct {
	step, armedStep, hugepage, decoupled, fill *series
	calibrate                                  float64 // ns
	costs                                      mm.Costs
	curMM, curFill                             float64
	curMMCalls, curFillCalls                   int64
	clock                                      float64
}

// timedAlg times each batch the serving loop hands the simulator. The
// loop reaches mm only through AccessBatch (it passes no scratch) and
// Costs, so wrapping changes nothing it computes.
type timedAlg struct {
	mm.Algorithm
	batch mm.Batcher
	ser   *series
	led   *serveLedger
}

func (t *timedAlg) AccessBatch(vs []uint64) {
	start := nowNS()
	t.batch.AccessBatch(vs)
	ns := float64(nowNS()-start) - t.led.clock
	t.ser.add(ns, int64(len(vs)))
	t.led.curMM += ns
	t.led.curMMCalls++
}

// timedGen times each page block the serving loop draws; the loop draws
// through workload.Fill, which takes the batch path.
type timedGen struct {
	g   workload.Generator
	led *serveLedger
}

func (t *timedGen) Next() uint64 { return t.g.Next() }
func (t *timedGen) Name() string { return t.g.Name() }

func (t *timedGen) NextBatch(dst []uint64) {
	start := nowNS()
	workload.Fill(t.g, dst)
	ns := float64(nowNS()-start) - t.led.clock
	t.led.fill.add(ns, int64(len(dst)))
	t.led.curFill += ns
	t.led.curFillCalls++
}

// flush books the mm and workload time accrued in the innermost open
// span, which started at start, as aggregate spans.
func (l *serveLedger) flush(r *spanRec, start int64) {
	limit := nowNS() - start
	r.aggregate("mm.Algorithm.AccessBatch", r.parent(), start, limit, l.curMM, l.curMMCalls)
	r.aggregate("workload.Fill", r.parent(), start, limit, l.curFill, l.curFillCalls)
	l.curMM, l.curFill, l.curMMCalls, l.curFillCalls = 0, 0, 0, 0
}

// replayServe replays every sv1 cell through serve.New, Calibrate and
// Step with the collector off, then every sv3 cell with it armed, each
// cell built exactly as the sweep builds it. The bare replay must
// reproduce sv1's rows and the armed one sv3's. It returns the replay's
// single-threaded wall time in s: the work of both tables.
func replayServe(h *harness, s experiments.Scale, tables []*experiments.Table) (float64, error) {
	h.led = &ledger{}
	led := &serveLedger{
		step:      h.led.series("serve.Sim.Step", "event"),
		armedStep: h.led.series("serve.Sim.Step+metrics", "event"),
		hugepage:  h.led.series("mm.HugePage.AccessBatch", "access"),
		decoupled: h.led.series("mm.Decoupled.AccessBatch", "access"),
		fill:      h.led.series("workload.Fill", "access"),
		clock:     h.clockNS,
	}
	m := buildServeMachine(s)
	algs := m.algs()
	bare := make([]serve.Result, len(algs)*len(svLoads))
	var work float64
	for pass, armed := range []bool{false, true} {
		t := tables[pass]
		h.check(len(t.Rows) == len(bare), "%s has %d rows, want %d", t.Name, len(t.Rows), len(bare))
		results := make([]serve.Result, len(bare))
		for ai, a := range algs {
			for li, load := range svLoads {
				h.rec.begin()
				res, err := replayServeCell(h, led, m, ai, li, armed)
				ns := h.rec.end("replay.serve.cell", xtrace.ArgStr("alg", a.name), xtrace.ArgStr("load", fmt.Sprint(load)),
					xtrace.ArgStr("metrics", fmt.Sprint(armed)))
				if err != nil {
					return 0, err
				}
				work += float64(ns) / 1e9
				results[ai*len(svLoads)+li] = res
			}
		}
		for ai, a := range algs {
			for li, load := range svLoads {
				res := results[ai*len(svLoads)+li]
				row := li*len(algs) + ai
				if row >= len(t.Rows) {
					continue
				}
				var replayed []string
				if armed {
					h.check(res.Counters == bare[ai*len(svLoads)+li].Counters,
						"armed replay of %s|load=%g: counters differ from the bare replay", a.name, load)
					replayed = sloRow(a.name, load, res, results, ai)
				} else {
					bare[ai*len(svLoads)+li] = res
					replayed = goodputRow(a.name, load, res)
				}
				h.check(slices.Equal(replayed, t.Rows[row]), "replay of %s %s|load=%g: %v, table says %v",
					t.Name, a.name, load, replayed, t.Rows[row])
			}
		}
	}
	var offered, completed uint64
	for _, r := range bare {
		offered += r.Counters.Offered
		completed += r.Counters.Completed
	}
	h.layer["serve.calibrate_s"] = led.calibrate / 1e9
	h.layer["serve.step_ns"] = led.step.rate()
	h.layer["serve.events"] = float64(led.step.calls)
	h.layer["serve.goodput_ratio"] = float64(completed) / float64(offered)
	h.layer["metrics.step_ns"] = led.armedStep.rate()
	h.layer["metrics.overhead_ratio"] = led.armedStep.rate()/led.step.rate() - 1
	h.layer["mm.hugepage.ns_per_access"] = led.hugepage.rate()
	h.layer["mm.decoupled.ns_per_access"] = led.decoupled.rate()
	h.layer["workload.fill_ns_per_access"] = led.fill.rate()
	h.layer["workload.fill_share"] = led.fill.ns / (led.fill.ns + led.hugepage.ns + led.decoupled.ns)
	setCostRates(h, led.costs)
	return work, nil
}

// replayServeCell is one (algorithm, load) cell, seeded from its grid
// position exactly as the sweep seeds it.
func replayServeCell(h *harness, led *serveLedger, m serveMachine, ai, li int, armed bool) (serve.Result, error) {
	base := hashutil.Hash64(h.o.seed, uint64(ai)<<32|uint64(li))
	alg, err := m.algs()[ai].build(base)
	if err != nil {
		return serve.Result{}, err
	}
	// The retry trigger is the explain failure-IO counter, so serving
	// needs it armed, as the sweep arms it.
	ec := mm.EnableExplain(alg)
	gen, err := workload.NewBimodal(m.hot, m.virt, 0.9, hashutil.Mix64(base+1))
	if err != nil {
		return serve.Result{}, err
	}
	ta := &timedAlg{Algorithm: alg, batch: alg.(mm.Batcher), ser: led.hugepage, led: led}
	if _, ok := alg.(*mm.Decoupled); ok {
		ta.ser = led.decoupled
	}
	sim, err := serve.New(serve.Config{
		Seed:        hashutil.Mix64(base + 2),
		Requests:    m.measuredReq,
		BlockPages:  svBlockPages,
		QueueCap:    svQueueCap,
		MaxAttempts: svMaxAttempts,
		Governor: serve.GovernorConfig{
			WindowNs:     1,
			QueueHigh:    svQueueHigh,
			MissNum:      svMissNum,
			MissDen:      svMissDen,
			RecoverDepth: svRecoverDepth,
			DegradedDiv:  svDegradedDiv,
		},
	}, ta, &timedGen{g: gen, led: led}, nil, ec)
	if err != nil {
		return serve.Result{}, err
	}
	rec := h.rec
	start := rec.begin()
	mean := sim.Calibrate(m.warmupReq)
	led.flush(rec, start)
	led.calibrate += float64(rec.end("serve.Sim.Calibrate", xtrace.ArgInt("requests", int64(m.warmupReq))))
	sim.SetDeadlineNs(svDeadlineMul * mean)
	sim.SetGovernorWindowNs(svWindowMul * mean)
	sim.SetRetryBaseNs(svRetryMul * mean)
	sim.SetTokenBucket(mean/svRefillDiv+1, svQueueCap)
	sim.SetArrivals(workload.NewPoisson(hashutil.Mix64(base+3), float64(mean)/svLoads[li]))
	step := led.step
	if armed {
		step = led.armedStep
		sim.ArmMetrics(metrics.Config{WidthNs: svMetricsWin * mean, BudgetNs: svSLOBudget * mean, Exemplars: svExemplars})
	}
	sim.Start()
	for more := true; more; {
		start := rec.begin()
		n := 0
		for n < svStepBlock {
			if more = sim.Step(); !more {
				break
			}
			n++
		}
		led.flush(rec, start)
		ns := rec.end("serve.Sim.Step", xtrace.ArgInt("calls", int64(n)))
		step.add(float64(ns)-h.clockNS, int64(n))
	}
	res := sim.Result()
	h.check(res.Counters.CheckIdentity() == nil, "replay cell %d/%d: %v", ai, li, res.Counters.CheckIdentity())
	if !armed {
		led.costs.Add(alg.Costs())
	}
	return res, nil
}

// cell formats one table cell as experiments.Table.AddRow does.
func cell(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.4g", f)
	}
	return fmt.Sprintf("%v", v)
}

func cells(vs ...any) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = cell(v)
	}
	return out
}

// goodputRow is the sv1 row a replayed cell must reproduce.
func goodputRow(alg string, load float64, r serve.Result) []string {
	c := r.Counters
	return cells(load, alg, load*1e9/float64(r.MeanServiceNs), r.GoodputPerSec(),
		c.Admitted, c.Completed, c.RejectedQueue+c.RejectedThrottle, c.Shed,
		c.TimedOutQueued+c.TimedOutServed, c.Retries, c.Degraded)
}

// sloRow is the sv3 row a replayed armed cell must reproduce, including
// the algorithm's max sustainable load over its whole load column.
func sloRow(alg string, load float64, r serve.Result, all []serve.Result, ai int) []string {
	sustainable := 0.0
	for li, l := range svLoads {
		if m := all[ai*len(svLoads)+li].Metrics; m != nil && m.SLO.Met(svBurnNum, svBurnDen) && l > sustainable {
			sustainable = l
		}
	}
	m := r.Metrics
	if m == nil {
		return nil
	}
	return cells(load, alg, r.GoodputPerSec(), r.Latency.Quantile(0.99), m.SLO.BudgetNs,
		m.SLO.Windows, m.SLO.Violations, m.SLO.BurnRatePct(), m.SLO.MaxStreak,
		m.SLO.Met(svBurnNum, svBurnDen), sustainable)
}
