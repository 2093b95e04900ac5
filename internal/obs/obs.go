// Package obs is the observability layer for the simulation stack:
// cost-over-time telemetry, reproducibility manifests, and live sweep
// progress for the long-running command-line tools.
//
// Three pieces, all zero-overhead when disabled:
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
