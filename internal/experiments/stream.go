package experiments

import (
	"errors"
	"fmt"
	"time"

	"addrxlat/internal/explain"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
	"addrxlat/internal/xtrace"
)

// Probe observes the row drivers: phase-lifecycle events and periodic
// cost snapshots taken at chunk boundaries (never inside the access
// loop). Like CostCache, the interface lives here so the harness stays
// decoupled from its implementation — internal/obs.Recorder is the
// standard one, plugged in by cmd/figures. Implementations must be safe
// for concurrent use: samples arrive from the sweep workers.
type Probe interface {
	// RowSample reports alg's cumulative counters at a chunk boundary of
	// the named phase (mm.PhaseWarmup or mm.PhaseMeasured) of row.
	// Costs.Accesses counts from the phase start.
	RowSample(row, phase, alg string, c mm.Costs)
	// RowPhase reports that a phase of n accesses finished in elapsed
	// wall time. alg is empty for streaming rows, where every simulator
	// shares the window; materialized runs report per algorithm.
	RowPhase(row, phase, alg string, accesses int, elapsed time.Duration)
}

// ExplainProbe is the optional Probe extension for cost attribution:
// probes that also implement it receive each simulator's cumulative
// explain counters and structural gauges at the same chunk boundaries as
// RowSample, whenever Scale.Explain is set. hasGauges is false for
// algorithms that expose no structural state (e.g. the TLB-only side
// problem). obs.Recorder is the standard implementation.
type ExplainProbe interface {
	RowExplain(row, phase, alg string, c explain.Counters, g explain.Gauges, hasGauges bool)
}

// PipelineProbe is the optional Probe extension for pipeline telemetry:
// probes that also implement it receive, after each pipelined row, the
// chunk ring's backpressure counters — whether the generator waited on
// the simulators or vice versa — so `-http` can show which side of the
// pipeline is the bottleneck. obs.Recorder is the standard
// implementation, mirroring the counters to the addrxlat.pipeline_*
// expvars.
type PipelineProbe interface {
	RowPipeline(row string, st workload.RingStats)
}

// explainProbe returns the probe's attribution side, or nil when
// attribution is off or the probe does not implement it.
func (s Scale) explainProbe() ExplainProbe {
	if !s.Explain || s.Probe == nil {
		return nil
	}
	ep, _ := s.Probe.(ExplainProbe)
	return ep
}

// deliverExplain snapshots one simulator's attribution state into ep.
// Algorithms without explain counters (not an Explainer, or never
// enabled) contribute nothing.
func deliverExplain(ep ExplainProbe, row, phase, alg string, a mm.Algorithm) {
	e, ok := a.(mm.Explainer)
	if !ok || e.Explain() == nil {
		return
	}
	var g explain.Gauges
	var hasG bool
	if gg, ok := a.(mm.Gauger); ok {
		g, hasG = gg.ExplainGauges()
	}
	ep.RowExplain(row, phase, alg, e.Explain().Snapshot(), g, hasG)
}

// streamChunk is the request-chunk granularity of the row drivers. One
// chunk is generated once and fanned out to every simulator in the row, so
// generation cost is paid per row instead of per cell and workload memory
// stays O(chunk) regardless of the access count.
const streamChunk = workload.DefaultChunk

// CostCache stores finished per-cell simulation results keyed by the
// canonical cell-key string (see fig1Machine.cellKey). Implementations
// must be safe for concurrent use; cmd/figures plugs in the file-backed
// resultcache. A nil cache (the zero Scale) disables caching entirely.
type CostCache interface {
	// Get returns the cached counters for key, if present.
	Get(key string) (mm.Costs, bool)
	// Put records the counters for key. Errors are the implementation's
	// problem (a cache failure must never fail an experiment).
	Put(key string, c mm.Costs)
}

// cacheGet consults the scale's cache, tolerating a nil cache. A hit
// lands on the execution trace (it explains a row finishing "instantly").
func (s Scale) cacheGet(key string) (mm.Costs, bool) {
	if s.Cache == nil {
		return mm.Costs{}, false
	}
	c, ok := s.Cache.Get(key)
	if ok {
		xtrace.Active().Instant(xtrace.InstantCacheHit, xtrace.ArgStr("key", key))
	}
	return c, ok
}

// cachePut records a finished cell, tolerating a nil cache.
func (s Scale) cachePut(key string, c mm.Costs) {
	if s.Cache != nil {
		s.Cache.Put(key, c)
	}
}

// simEpoch versions the simulator implementations for cache keys: bump it
// whenever any algorithm's cost output changes for the same configuration,
// so stale cached rows cannot survive a semantics change.
const simEpoch = 1

// cellKey builds the canonical content key for one (machine, algorithm)
// simulation cell. Everything that determines the cell's counters is in
// the key: workload identity, machine geometry, window lengths, scale
// divisors, seed, the algorithm's self-describing name, and the simulator
// epoch. The key is hashed by the cache backend; here it stays readable.
func (m *fig1Machine) cellKey(s Scale, seed uint64, alg string) string {
	return fmt.Sprintf("cell|epoch=%d|w=%s|alg=%s|V=%d|P=%d|tlb=%d|warm=%d|meas=%d|space=%d|acc=%d|seed=%d",
		simEpoch, m.workload, alg, m.virtualPages, m.ramPages, m.tlbEntries,
		m.warmupN, m.measuredN, s.SpaceDiv, s.AccessDiv, seed)
}

// runRow drives every simulator in sims through the row's request stream:
// warmup window, counter reset, measured window — mm.RunWarm's two-phase
// methodology, but with each chunk generated once and shared by all sims
// instead of materializing the windows per cell. A generator goroutine
// fills a bounded chunk ring and one long-lived worker per simulator
// consumes it at its own pace (see runRowPipelined); Workers bounds the
// concurrent simulations. Callers read the finished counters back with
// sims[i].Costs().
//
// Fault tolerance: a panic while servicing one simulator (a bug in that
// algorithm, or an injected cell-panic) poisons only that cell — its
// error lands in cellErrs[i], the simulator is dropped from the row, and
// the remaining cells keep consuming the stream. The second return value
// is fatal for the whole row: a generator failure, or the sweep context
// being canceled at a chunk boundary (errors.Is(err, context.Canceled)).
// Callers whose tables cannot degrade per cell collapse both with
// joinRow; Fig1 and Crossover render poisoned cells as footnoted error
// rows instead.
func (m *fig1Machine) runRow(s Scale, sims []mm.Algorithm) (cellErrs []error, err error) {
	cellErrs = make([]error, len(sims))
	if len(sims) == 0 {
		return cellErrs, nil
	}
	gen, err := m.newGen()
	if err != nil {
		return cellErrs, err
	}
	// Execution tracing: the row's lifecycle span lives on its own
	// timeline, and the workers' timelines open at the same stamp. The
	// disarmed cost of the whole row is this one atomic load.
	row := string(m.workload)
	tr := xtrace.Active()
	rowStart := tr.Now()
	if tr != nil {
		rowTh := tr.RowThread(row)
		defer func() { rowTh.Span(row, xtrace.CatRow, rowStart) }()
	}
	// Simulator names are resolved once per row: the probe hook needs
	// them per chunk, the fault-injection matcher per cell, the workers'
	// pprof labels per worker — and Name() formats.
	names := make([]string, len(sims))
	for i, a := range sims {
		names[i] = a.Name()
	}
	if s.Explain {
		for _, a := range sims {
			mm.EnableExplain(a)
		}
	}
	return cellErrs, m.runRowPipelined(s, gen, sims, cellErrs, names, rowStart)
}

// joinRow collapses runRow's per-cell errors and row-fatal error into a
// single error, for experiments whose tables cannot degrade cell by cell.
func joinRow(cellErrs []error, err error) error {
	return errors.Join(append([]error{err}, cellErrs...)...)
}

// probeSampler adapts a Probe to mm.Sampler under a fixed row label, for
// experiments that run materialized windows through the mm runners. With
// an ExplainProbe attached it also delivers the algorithm's attribution
// snapshot at each sample point.
type probeSampler struct {
	row string
	p   Probe
	ep  ExplainProbe
	a   mm.Algorithm
}

func (ps probeSampler) Sample(phase, alg string, c mm.Costs) {
	ps.p.RowSample(ps.row, phase, alg, c)
	if ps.ep != nil {
		deliverExplain(ps.ep, ps.row, phase, alg, ps.a)
	}
}

// runWarm is mm.RunWarm with the scale's telemetry and cancellation
// attached: both windows run through the chunk runner at the stream chunk
// granularity, and a probe receives per-chunk samples and per-phase wall
// times under the given row label. The final counters are identical to
// mm.RunWarm's (chunking an AccessBatch changes no state transitions —
// pinned by TestSampledRunsByteIdentical). A canceled sweep context stops
// the run at a chunk boundary and returns the context's error.
func (s Scale) runWarm(row string, a mm.Algorithm, warmup, measured []uint64) (mm.Costs, error) {
	ctx := s.context()
	if s.Explain {
		mm.EnableExplain(a)
	}
	var ps mm.Sampler
	if s.Probe != nil {
		ps = probeSampler{row: row, p: s.Probe, ep: s.explainProbe(), a: a}
	}
	runPhase := func(phase string, reqs []uint64) error {
		start := time.Now()
		if err := mm.RunPhaseChunksCtx(ctx, a, mm.SliceChunks(reqs, streamChunk), ps, phase); err != nil {
			return err
		}
		if s.Probe != nil {
			s.Probe.RowPhase(row, phase, a.Name(), len(reqs), time.Since(start))
		}
		return nil
	}
	if err := runPhase(mm.PhaseWarmup, warmup); err != nil {
		return a.Costs(), err
	}
	a.ResetCosts()
	err := runPhase(mm.PhaseMeasured, measured)
	return a.Costs(), err
}

// materialize builds the row's warmup and measured windows as slices, for
// the consumers that genuinely need the whole sequence in memory (offline
// OPT baselines, differential tests). The concatenation is exactly what
// runRow streams, by the ring's construction.
func (m *fig1Machine) materialize() (warmup, measured []uint64, err error) {
	gen, err := m.newGen()
	if err != nil {
		return nil, nil, err
	}
	return workload.Take(gen, m.warmupN), workload.Take(gen, m.measuredN), nil
}
