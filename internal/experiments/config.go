package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"addrxlat/internal/event"
	"addrxlat/internal/parallel"
)

// WatchdogEnvVar is the environment variable WatchdogFromEnv reads the
// stalled-worker timeout from (a Go duration string, e.g. "30s").
const WatchdogEnvVar = "ADDRXLAT_WATCHDOG"

// WatchdogFromEnv resolves the pipelined executor's stalled-worker
// timeout from $ADDRXLAT_WATCHDOG. Unset, empty, unparsable, or
// non-positive values disable the watchdog — off is the safe default,
// and the one tests run under.
func WatchdogFromEnv() time.Duration {
	v := os.Getenv(WatchdogEnvVar)
	if v == "" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0
	}
	return d
}

// Scale shrinks the paper's machine dimensions by a power-of-two factor
// while preserving the ratios that give each figure its shape (hot-set :
// TLB coverage, RAM : footprint, etc.). Scale 1 is paper scale.
type Scale struct {
	// SpaceDiv divides all page counts and the TLB entry count.
	SpaceDiv uint64
	// AccessDiv divides the warmup and measured access counts.
	AccessDiv uint64
	// Workers bounds the goroutines a sweep may fan out across: the
	// concurrent (row, algorithm) simulations of the row executor, and
	// the tasks of forEach — one per parameter point, trial or one-cell
	// row. 0 means GOMAXPROCS. 1 admits one simulation at a time —
	// results are identical at any setting, since every simulator is
	// independently seeded and lands in an order-stable slot (pinned by
	// TestFig1Deterministic and TestPipelinedMatchesMaterialized).
	Workers int
	// Cache, when non-nil, is consulted before computing each cell of the
	// streaming row drivers (Fig1, Crossover) and each serve sweep point,
	// and updated afterwards. Keys are canonical: workload, algorithm,
	// geometry, windows, scale and seed, plus the serve grid's knobs for a
	// point, so a hit reproduces the same table. Values are JSON: a
	// cell's mm.Costs, a point's serve.Point. The serve sweep bypasses
	// the cache while a serve-burst fault rule is planned (that fault
	// changes results by design).
	Cache Cache
	// Observer, when non-nil, receives the run's events (event.Event): a
	// cost snapshot per simulator at every chunk boundary of the row
	// executor with the chunk's stage times, every chunk-ring publish,
	// a wall-time record per phase, each row's end, the marks (cancel,
	// fault, quarantine, cache hit), and each serve sweep's record.
	// Snapshots are taken between chunks, never inside the access loop,
	// so an observer cannot change a single counter; nil disables all
	// telemetry at the cost of one nil check per chunk, and the executor
	// reads the clock only for an observer.
	Observer event.Observer
	// Explain enables cost attribution: every simulator gets its explain
	// counters allocated before the run, and the Observer's
	// chunk-boundary samples carry its attribution snapshot and
	// structural gauges. Attribution never mutates algorithm state, so
	// tables are byte-identical with it on or off (pinned by
	// TestSampledRunsByteIdentical).
	Explain bool
	// ServeMetrics arms the virtual-time window collector
	// (internal/metrics) on every serve-sweep cell: per-window counters,
	// gauges, latency quantiles, SLO verdicts, and slowest-request
	// exemplars ride on each point and into the manifest. The collector
	// observes the event loop strictly at event boundaries, so sv1/sv2
	// tables are byte-identical with it on or off (pinned by
	// TestServeMetricsByteIdentical). The SLO-curve table (sv3) arms it
	// regardless of this flag — its columns are derived from the window
	// stream.
	ServeMetrics bool
	// Watchdog, when > 0, arms a bounded-wait monitor over the pipelined
	// row executor's workers: a simulator that spends longer than this
	// inside a single chunk is declared stalled — its cell degrades to a
	// footnoted error row, its ring references and worker slot are
	// reclaimed, and the rest of the row keeps streaming instead of the
	// sweep wedging. 0 (the default, and the default in tests) disables
	// the monitor; CLIs arm it from $ADDRXLAT_WATCHDOG via
	// WatchdogFromEnv. The monitor only observes wall time between chunk
	// boundaries, so results are byte-identical with it armed as long as
	// no stall fires.
	Watchdog time.Duration
	// Ctx, when non-nil, cancels the sweep cooperatively: row drivers
	// check it at every chunk boundary and forEach starts no new task once
	// it is done, so a SIGINT drains within one chunk or one task of
	// simulation instead of finishing the run. The returned error wraps
	// the context's error (test with errors.Is). Nil means run to
	// completion. Cancellation never corrupts the result cache: a cell is
	// only Put after its row finished cleanly.
	Ctx context.Context
}

// PaperScale runs the paper's exact dimensions. On a 2-vCPU Xeon host
// Figure 1's tables take under a minute each (f1a 18 s, f1b 58 s, f1c
// 28 s at 1.6 GiB peak RSS; EXPERIMENTS.md). The t4 offline-OPT rows do
// not finish in 8 GiB of memory.
func PaperScale() Scale { return Scale{SpaceDiv: 1, AccessDiv: 1} }

// DownScale is the default laptop-friendly configuration: address spaces
// and TLB shrunk 64×, access counts 50×.
func DownScale() Scale { return Scale{SpaceDiv: 64, AccessDiv: 50} }

func (s Scale) validate() error {
	if s.SpaceDiv == 0 || s.AccessDiv == 0 {
		return fmt.Errorf("experiments: scale divisors must be positive: %+v", s)
	}
	return nil
}

// pages converts a byte size to base pages (4 KiB) and applies the space
// divisor, flooring at 1.
func (s Scale) pages(bytes uint64) uint64 {
	p := bytes / 4096 / s.SpaceDiv
	if p == 0 {
		p = 1
	}
	return p
}

// entries scales an entry count, flooring at floorAt.
func (s Scale) entries(n uint64, floorAt uint64) int {
	v := n / s.SpaceDiv
	if v < floorAt {
		v = floorAt
	}
	return int(v)
}

// accesses scales an access count, flooring at 10⁴.
func (s Scale) accesses(n uint64) int {
	v := n / s.AccessDiv
	if v < 10000 {
		v = 10000
	}
	return int(v)
}

// Paper constants shared by the Section 6 experiments.
const (
	paperTLBEntries = 1536
	paperGiB        = uint64(1) << 30
	paperEpsilon    = 0.01 // ε used when printing total costs
)

// HugePageSweep is the paper's h ∈ {1, 2, 4, …, 1024}.
func HugePageSweep() []uint64 {
	var hs []uint64
	for h := uint64(1); h <= 1024; h *= 2 {
		hs = append(hs, h)
	}
	return hs
}

// forEach is the sweep fan-out of every experiment: fn(i) for i in
// [0, n), one task per parameter point, trial or one-cell row, across at
// most s.Workers goroutines (GOMAXPROCS when 0). Once s.Ctx is canceled
// no new task starts, and the returned error wraps the context's error.
func (s Scale) forEach(n int, fn func(i int) error) error {
	return parallel.ForEach(s.context(), n, s.Workers, fn)
}

// rowWorkers resolves the Workers default for the row executor: how many
// simulations may run concurrently within one row.
func (s Scale) rowWorkers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// context returns the sweep's cancellation context, tolerating the nil
// default of the zero Scale.
func (s Scale) context() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}
