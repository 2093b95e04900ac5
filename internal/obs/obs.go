// Package obs is the observability layer for the simulation stack:
// cost-over-time telemetry, execution traces, reproducibility
// manifests, and live sweep progress for the long-running command-line
// tools.
//
// Four pieces, all zero-overhead when disabled:
//
//   - Recorder is the standard event.Observer. The experiment harness's
//     row executor (experiments.Scale.Observer) hands it one event.Event
//     per simulator at every chunk boundary — cumulative mm.Costs, plus
//     explain counters and gauges when attribution is armed — and one per
//     phase, row and serve sweep. The Recorder downsamples the cost
//     snapshots to a configurable access interval and renders
//     per-algorithm cost-over-time series and attribution as TSV or JSON.
//     The access hot path is never touched: events arrive between
//     AccessBatch calls, so attaching a Recorder cannot change a single
//     counter — TestSampledRunsByteIdentical in internal/experiments pins
//     byte-identical tables with sampling and attribution on and off.
//
//   - Trace draws the Perfetto execution trace (into an xtrace.Tracer)
//     and the per-row straggler reports (RowReport) from the wall times
//     the same events carry; a Recorder forwards every event to it and
//     collects the reports (SetTrace, Timelines).
//
//   - Manifest records everything needed to reproduce and audit one CLI
//     invocation: resolved flag configuration, seeds, go version, git
//     revision, per-experiment wall times and table shapes, per-phase
//     warmup/measured splits, and result-cache hit counts. cmd/figures
//     and cmd/atsim write one JSON manifest per run under results/.
//
//   - Progress prints live per-experiment lines (timing, ETA, cache hit
//     rate) to stderr during a sweep and mirrors the counters into the
//     process expvar map, which StartHTTP serves at /debug/vars for
//     watching multi-hour runs remotely.
package obs

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes one of a run's side files (curves, attribution, serve
// windows, timelines): it creates path's directory, creates path, and
// hands the file to write.
func WriteFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
