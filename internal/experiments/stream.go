package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"addrxlat/internal/event"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// streamChunk is the request-chunk granularity of the row drivers. One
// chunk is generated once and fanned out to every simulator in the row, so
// generation cost is paid per row instead of per cell and workload memory
// stays O(chunk) regardless of the access count.
const streamChunk = workload.DefaultChunk

// Cache stores finished results as opaque bytes keyed by a canonical
// content key: a Fig1 or Crossover cell's mm.Costs (fig1Machine.cellKey)
// and a serve sweep's point (serveSpec.cellKey), each as JSON.
// Implementations must be safe for concurrent use; cmd/figures plugs in
// the file-backed resultcache. A nil cache (the zero Scale) disables
// caching entirely.
type Cache interface {
	// Get returns the value stored under key, if present.
	Get(key string) ([]byte, bool)
	// Put stores val under key. Errors are the implementation's problem
	// (a cache failure must never fail an experiment).
	Put(key string, val []byte)
}

// cacheGet decodes the value cached under key, tolerating a nil cache. A
// value that does not decode (schema drift) is a miss. A hit is marked
// on the event stream (it explains a row finishing "instantly").
func cacheGet[T any](s Scale, key string) (T, bool) {
	var v T
	if s.Cache == nil {
		return v, false
	}
	b, ok := s.Cache.Get(key)
	if !ok || json.Unmarshal(b, &v) != nil {
		var zero T
		return zero, false
	}
	s.mark(event.MarkCacheHit, "", "", key)
	return v, true
}

// cachePut stores v as JSON under key, tolerating a nil cache.
func (s Scale) cachePut(key string, v any) {
	if s.Cache == nil {
		return
	}
	if b, err := json.Marshal(v); err == nil {
		s.Cache.Put(key, b)
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
		simEpoch, m.row, alg, m.virtualPages, m.ramPages, m.tlbEntries,
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
	// The row's wall time, and the first ring wait of every worker,
	// start here; the clock is read only for an observer.
	var rowStart time.Time
	if s.Observer != nil {
		rowStart = time.Now()
	}
	// Simulator names are resolved once per row: the observer needs
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

// RunStream runs sims over the first warmupN + measuredN requests of gen
// as one row labeled row, through the row executor every experiment
// uses: warmup window, per-simulator counter reset, measured window. It
// is the entry point for callers that bring their own request stream —
// cmd/atsim's generated, graph500 and replayed runs. The observer,
// attribution, context and watchdog come from s, as for an experiment
// row. Per-cell failures and the row-fatal error are joined into the
// returned error; callers read each simulator's measured-window counters
// back with Costs().
func RunStream(s Scale, row string, gen workload.Generator, warmupN, measuredN int, sims ...mm.Algorithm) error {
	m := &fig1Machine{row: row, warmupN: warmupN, measuredN: measuredN,
		newGen: func() (workload.Generator, error) { return gen, nil }}
	return joinRow(m.runRow(s, sims))
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
