package mm

import (
	"context"

	"addrxlat/internal/xtrace"
)

// Phase labels used by the chunk runner and the telemetry layer: the
// warmup phase covers the accesses before the counter reset, the measured
// phase the accesses after it.
const (
	PhaseWarmup   = "warmup"
	PhaseMeasured = "measured"
)

// Sampler receives cumulative cost snapshots from RunPhaseChunksCtx.
// Samples for one algorithm arrive in access order; implementations must
// be safe for concurrent use, since harnesses run algorithms in parallel.
// internal/obs.Recorder is the standard implementation.
type Sampler interface {
	// Sample reports alg's cumulative counters after one chunk of the
	// given phase. Costs.Accesses is the x-axis: accesses serviced since
	// the phase began (the counter reset, for the measured phase).
	Sample(phase, alg string, c Costs)
}

// ChunkSeq yields the successive request chunks of one phase: each call
// returns the next chunk and true, or ok=false once the phase is
// exhausted. It is the seam between the chunk runner and wherever
// requests come from — a materialized slice (SliceChunks) or a streaming
// reader whose chunks need not be resident all at once.
type ChunkSeq func() (chunk []uint64, ok bool)

// SliceChunks adapts a materialized window to a ChunkSeq yielding pieces
// of at most every requests (the final piece short). every <= 0 yields
// the whole window as one chunk.
func SliceChunks(requests []uint64, every int) ChunkSeq {
	if every <= 0 {
		every = len(requests)
	}
	return func() ([]uint64, bool) {
		if len(requests) == 0 {
			return nil, false
		}
		n := min(every, len(requests))
		chunk := requests[:n]
		requests = requests[n:]
		return chunk, true
	}
}

// RunPhaseChunksCtx services one phase from a chunk iterator: each chunk
// is preceded by a context check and followed by an optional sample, so
// cancellation and telemetry both land exactly at chunk boundaries. By
// the Batcher contract the chunking changes no counters; on cancellation
// the counters accumulated so far remain on the algorithm and the
// context's error is returned. The two-phase methodology is two calls
// with a ResetCosts between them.
//
// With an execution tracer installed (xtrace.Install) the phase gets its
// own worker timeline — a phase span containing one span per chunk — so
// the materialized runs (atsim, the related/geometry studies) appear in
// the trace alongside the streaming rows. The timeline carries no row
// label; the analyzer groups such phases per algorithm. Disabled cost:
// one atomic load per phase, a nil check per chunk.
func RunPhaseChunksCtx(ctx context.Context, a Algorithm, next ChunkSeq, s Sampler, phase string) error {
	var name string
	if s != nil {
		name = a.Name()
	}
	var th *xtrace.Thread
	if tr := xtrace.Active(); tr != nil {
		if name == "" {
			name = a.Name()
		}
		th = tr.Worker("", name)
		phaseStart := th.Now()
		defer func() { th.Span(phase, xtrace.CatPhase, phaseStart) }()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk, ok := next()
		if !ok {
			return nil
		}
		var chunkStart int64
		if th != nil {
			chunkStart = th.Now()
		}
		a.AccessBatch(chunk)
		if s != nil {
			s.Sample(phase, name, a.Costs())
		}
		if th != nil {
			th.Span(phase, xtrace.CatChunk, chunkStart, xtrace.ArgInt("n", int64(len(chunk))))
		}
	}
}
