// Package obs is the observability layer for the simulation stack:
// cost-over-time telemetry, reproducibility manifests, and live sweep
// progress for the long-running command-line tools.
//
// Three pieces, all zero-overhead when disabled:
//
//   - Recorder samples cumulative mm.Costs snapshots delivered at the
//     chunk boundaries of the experiment harness (experiments.Scale.Probe)
//     or the mm chunk runner (mm.RunPhaseChunksCtx), downsampling to
//     a configurable access interval and rendering per-algorithm
//     cost-over-time series as TSV or JSON. The access hot path is never
//     touched: snapshots arrive between AccessBatch calls, so attaching a
//     Recorder cannot change a single counter — the differential tests in
//     internal/experiments pin byte-identical tables with sampling on and
//     off.
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
