package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"addrxlat/internal/faultinject"
	"addrxlat/internal/mm"
	"addrxlat/internal/parallel"
	"addrxlat/internal/workload"
	"addrxlat/internal/xtrace"
)

// Watchdog states of one pipelined worker, in watchState.state.
const (
	wsIdle    = int32(0) // between chunks
	wsServing = int32(1) // inside serveChunk
	wsStalled = int32(2) // the monitor declared a stall and reclaimed the cell
)

// errStalled is the sentinel a worker returns after losing the
// state CAS to the watchdog monitor: the monitor already recorded the
// cell error, released the worker's ring references, freed its gate slot,
// and signaled the collector — the worker must exit without touching any
// of them again.
var errStalled = errors.New("experiments: worker stalled; cell reclaimed by watchdog")

// watchState is one worker's heartbeat, shared with the watchdog monitor.
// The worker publishes cursor and beat, then flips state idle→serving
// around each serveChunk; whichever side wins the serving→{idle,stalled}
// CAS owns the post-chunk cleanup. crossed guards the phaseClock so a
// worker and the monitor cannot both account the same warmup crossing.
type watchState struct {
	state   atomic.Int32
	cursor  atomic.Int64
	beat    atomic.Int64 // UnixNano of the current chunk's start
	crossed atomic.Bool
}

// crossOnce accounts a worker's warmup→measured crossing on the phase
// clock exactly once, whether the worker or the watchdog gets there
// first. With no watchdog armed (ws nil) it is a plain cross.
func crossOnce(ws *watchState, clock *phaseClock) {
	if ws == nil || !ws.crossed.Swap(true) {
		clock.cross()
	}
}

// runRowPipelined is the row executor — the only one: a generator
// goroutine fills a ring of workload.DefaultLookahead refcounted chunk
// buffers (segment 0 the warmup window, segment 1 the measured window),
// and one long-lived worker per simulator consumes the ring from its own
// cursor at its own pace, at most Scale.Workers of them simulating at any
// instant. Row wall-clock is ≈ the slowest simulator's total time, with
// generation overlapped; Workers=1 is the same ring with one admission
// slot, and a single-cell row (e.g. every other cell cached) is a ring
// with one consumer.
//
// Determinism: every simulator sees the identical request sequence in
// the identical chunks (the ring publishes one stream; consumers only
// differ in when they read it), each worker services its chunks in order,
// and each worker resets its own counters exactly at the segment 0 → 1
// edge — so final counters, probe samples, and explain snapshots are
// byte-identical to running each cell alone over the materialized windows
// (pinned by TestPipelinedMatchesMaterialized). No allocation happens in
// the chunk loop.
//
// Failure shapes match runRow's contract: a panic while serving one
// simulator poisons only that cell (the worker detaches from the ring and
// the survivors keep streaming); a canceled context stops every worker at
// a chunk boundary and is returned as the row-fatal error.
func (m *fig1Machine) runRowPipelined(s Scale, gen workload.Generator, sims []mm.Algorithm, cellErrs []error, names []string, rowStart int64) error {
	ctx := s.context()
	row := string(m.workload)

	// The sweep-kill fault point fires from the producer, once per chunk
	// (crash-resume drills need a kill mid-row, not at a row edge).
	var hook func(seq, segment, index int)
	if faultinject.Armed() {
		hook = func(seq, segment, index int) {
			if faultinject.Fire(faultinject.SweepKill, row) {
				faultinject.Kill(fmt.Sprintf("row %s, %s chunk %d", row, pipePhase(segment), index))
			}
		}
	}
	// Tracing (when armed) gives the ring producer its own timeline:
	// wait-for-consumers spans plus the in-flight / backpressure counter
	// tracks. RingThread and WithTrace are nil-safe, so the disarmed cost
	// is the one Active() load above this call.
	tr := xtrace.Active()
	ring, err := workload.NewRing(gen, streamChunk, []int{m.warmupN, m.measuredN},
		workload.DefaultLookahead, len(sims), workload.WithFillHook(hook),
		workload.WithTrace(tr.RingThread(row)))
	if err != nil {
		return err
	}
	defer ring.Stop()

	// The ring blocks in condition variables, not channels, so a watcher
	// translates context cancellation into Stop — waking the producer and
	// any worker blocked on an unpublished chunk.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			tr.Instant(xtrace.InstantCancel, xtrace.ArgStr("row", row))
			ring.Stop()
		case <-watchDone:
		}
	}()

	// More simulators than workers: a gate bounds how many simulate at
	// once. It is claimed per chunk, not per row, so every simulator keeps
	// making progress (and releasing ring slots) no matter the ratio.
	var gate *parallel.Gate
	if workers := s.rowWorkers(); workers < len(sims) {
		gate = parallel.NewGate(workers)
	}

	clock := &phaseClock{left: len(sims)}
	start := time.Now()
	var grpErr error
	if wd := s.Watchdog; wd > 0 {
		grpErr = m.runWorkersWatched(s, wd, ring, gate, clock, sims, cellErrs, names, row, rowStart)
	} else {
		// No watchdog (the default, and the path the byte-identity tests
		// pin): plain structured join.
		grp := parallel.NewGroup(len(sims))
		for i := range sims {
			i := i
			grp.Go(i, func() error {
				var werr error
				// The pprof labels make CPU profiles attribute pipeline time
				// per (row, algorithm) worker.
				pprof.Do(ctx, pprof.Labels("addrxlat_row", row, "addrxlat_alg", names[i]), func(context.Context) {
					werr = m.simWorker(s, ring, gate, clock, sims[i], cellErrs, names, row, i, rowStart, nil)
				})
				return werr
			})
		}
		grpErr = grp.Wait()
	}

	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("experiments: row %s canceled at a chunk boundary: %w", row, cerr)
	}
	if grpErr != nil {
		// Not cancellation and not a per-cell panic (those land in
		// cellErrs): a harness failure, fatal for the row.
		return grpErr
	}
	if s.Probe != nil {
		warmupAt := clock.crossedAt()
		if warmupAt.IsZero() {
			warmupAt = time.Now()
		}
		s.Probe.RowPhase(row, mm.PhaseWarmup, "", m.warmupN, warmupAt.Sub(start))
		s.Probe.RowPhase(row, mm.PhaseMeasured, "", m.measuredN, time.Since(warmupAt))
		if pp, ok := s.Probe.(PipelineProbe); ok {
			pp.RowPipeline(row, ring.Stats())
		}
	}
	return nil
}

// runWorkersWatched is the watchdog variant of the worker join: every
// worker heartbeats through a watchState, and a monitor goroutine
// declares any worker that spends longer than wd inside one chunk
// stalled — the cell degrades to a footnoted error row, the worker's gate
// slot and ring references are reclaimed so the rest of the row keeps
// streaming, and the collector is signaled on the worker's behalf (a
// structured Group.Wait would wedge on the stuck goroutine, which is the
// exact failure the watchdog exists to survive). The stuck goroutine
// itself is not killed — Go cannot — but everything it owned is released
// and its results are discarded.
func (m *fig1Machine) runWorkersWatched(s Scale, wd time.Duration, ring *workload.Ring, gate *parallel.Gate, clock *phaseClock, sims []mm.Algorithm, cellErrs []error, names []string, row string, rowStart int64) error {
	ctx := s.context()
	tr := xtrace.Active()
	wss := make([]*watchState, len(sims))
	for i := range wss {
		wss[i] = &watchState{}
	}
	// One token per worker, sent by the worker itself on a clean return or
	// by the monitor when it declares the worker stalled — never both: the
	// serving→{idle,stalled} CAS picks exactly one sender.
	done := make(chan int, len(sims))
	werrs := make([]error, len(sims))
	for i := range sims {
		i := i
		go func() {
			var werr error
			pprof.Do(ctx, pprof.Labels("addrxlat_row", row, "addrxlat_alg", names[i]), func(context.Context) {
				werr = m.simWorker(s, ring, gate, clock, sims[i], cellErrs, names, row, i, rowStart, wss[i])
			})
			if errors.Is(werr, errStalled) {
				return // the monitor already signaled for this slot
			}
			werrs[i] = werr
			done <- i
		}()
	}

	stopMon := make(chan struct{})
	go func() {
		tick := wd / 4
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-t.C:
			}
			now := time.Now().UnixNano()
			for i, ws := range wss {
				if ws.state.Load() != wsServing || now-ws.beat.Load() <= int64(wd) {
					continue
				}
				if !ws.state.CompareAndSwap(wsServing, wsStalled) {
					continue // finished the chunk between the load and the CAS
				}
				cur := int(ws.cursor.Load())
				cellErrs[i] = fmt.Errorf("experiments: cell %s|%s stalled: no progress within %v on chunk %d (watchdog)",
					row, names[i], wd, cur)
				tr.Instant(xtrace.InstantQuarantine,
					xtrace.ArgStr("cell", row+"|"+names[i]), xtrace.ArgStr("reason", "stalled"))
				gate.Leave()
				ring.Release(cur)
				ring.DetachFrom(cur + 1)
				crossOnce(ws, clock)
				done <- i
			}
		}
	}()
	for range sims {
		<-done
	}
	close(stopMon)
	for _, werr := range werrs {
		if werr != nil {
			return werr
		}
	}
	return nil
}

// simWorker drives one simulator over the whole row: every chunk of both
// segments in order, resetting the sim's counters at the warmup→measured
// edge. It returns nil for a poisoned cell (recorded in cellErrs[i]),
// errStalled when the watchdog reclaimed the cell mid-chunk, and any
// other error only for cancellation. ws is nil when no watchdog is armed.
func (m *fig1Machine) simWorker(s Scale, ring *workload.Ring, gate *parallel.Gate, clock *phaseClock, a mm.Algorithm, cellErrs []error, names []string, row string, i int, rowStart int64, ws *watchState) error {
	ctx := s.context()
	ep := s.explainProbe()
	cur, seg := 0, 0
	inWarmup := true

	// One trace timeline per (row, simulator) worker, recorded only at the
	// chunk boundaries this loop already observes. The worker span and the
	// first phase and wait-generation spans all open at the row's start
	// stamp — until a worker runs, ring set-up included, it is by
	// definition waiting on the generator's lead chunks — and every later
	// wait-generation span opens where the previous chunk span closed (so
	// the ring release in between counts as waiting on the ring). Set-up,
	// scheduler and hand-off delay all land in wait time, which keeps
	// busy+blocked ≈ row wall even on saturated machines.
	tr := xtrace.Active()
	var th *xtrace.Thread
	var wStart, phaseStart, lastEnd int64
	if tr != nil {
		th = tr.Worker(row, names[i])
		wStart = rowStart
		phaseStart, lastEnd = wStart, wStart
	}
	defer func() {
		// Trailing phase and worker spans, on every exit path (end of
		// stream, cancellation, poisoned cell).
		th.Span(pipePhase(seg), xtrace.CatPhase, phaseStart)
		th.Span(names[i], xtrace.CatWorker, wStart)
	}()

	for {
		if cerr := ctx.Err(); cerr != nil {
			ring.DetachFrom(cur)
			return fmt.Errorf("experiments: cell %s|%s canceled at a %s chunk boundary: %w",
				row, names[i], pipePhase(seg), cerr)
		}
		genStart := lastEnd
		c, ok := ring.Get(cur)
		if th != nil {
			th.Span(xtrace.WaitGeneration, xtrace.CatWait, genStart, xtrace.ArgInt("seq", int64(cur)))
		}
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				ring.DetachFrom(cur)
				return fmt.Errorf("experiments: cell %s|%s canceled at a %s chunk boundary: %w",
					row, names[i], pipePhase(seg), cerr)
			}
			break // end of stream
		}
		if c.Segment != seg {
			// Warmup → measured edge: this worker's own counter reset, no
			// cross-simulator barrier. The ring never straddles segments, so
			// the reset lands exactly where mm.RunWarm puts it.
			if th != nil {
				th.Span(pipePhase(seg), xtrace.CatPhase, phaseStart)
				phaseStart = th.Now()
			}
			seg = c.Segment
			a.ResetCosts()
			if inWarmup {
				inWarmup = false
				crossOnce(ws, clock)
			}
		}
		var admitStart int64
		if th != nil && gate != nil {
			admitStart = th.Now()
		}
		gate.Enter()
		if th != nil && gate != nil {
			th.Span(xtrace.WaitAdmission, xtrace.CatWait, admitStart)
		}
		var chunkStart int64
		if th != nil {
			chunkStart = th.Now()
		}
		if ws != nil {
			// Heartbeat for the watchdog: cursor and beat first, then the
			// idle→serving flip the monitor keys on.
			ws.cursor.Store(int64(cur))
			ws.beat.Store(time.Now().UnixNano())
			ws.state.Store(wsServing)
		}
		cellErr := m.serveChunk(s, ep, a, c.Data, row, pipePhase(seg), names[i], ws)
		if ws != nil && !ws.state.CompareAndSwap(wsServing, wsIdle) {
			// The monitor won the race: it already recorded the stall,
			// released this worker's ring references and gate slot, and
			// signaled the collector. Exit without touching any of them.
			return errStalled
		}
		if th != nil {
			lastEnd = th.Now()
			th.SpanAt(pipePhase(seg), xtrace.CatChunk, chunkStart, lastEnd,
				xtrace.ArgInt("seq", int64(c.Seq)), xtrace.ArgInt("n", int64(len(c.Data))))
		}
		gate.Leave()
		ring.Release(cur)
		cur++
		if cellErr != nil {
			cellErrs[i] = cellErr
			tr.Instant(xtrace.InstantQuarantine, xtrace.ArgStr("cell", row+"|"+names[i]))
			ring.DetachFrom(cur)
			if inWarmup {
				crossOnce(ws, clock)
			}
			return nil
		}
	}
	if inWarmup {
		// The measured window was empty (no segment-1 chunks): the
		// methodology still resets after warmup.
		a.ResetCosts()
		crossOnce(ws, clock)
	}
	return nil
}

// serveChunk services one chunk on one simulator, with the probe and
// fault-injection points at the chunk boundary. A panic (algorithm bug or
// injected cell fault) is recovered into the returned error.
func (m *fig1Machine) serveChunk(s Scale, ep ExplainProbe, a mm.Algorithm, chunk []uint64, row, phase, name string, ws *watchState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: cell %s|%s panicked: %v", row, name, r)
		}
	}()
	if faultinject.Armed() && faultinject.Fire(faultinject.CellPanic, row+"|"+name) {
		xtrace.Active().Instant(xtrace.InstantFault,
			xtrace.ArgStr("point", faultinject.CellPanic), xtrace.ArgStr("cell", row+"|"+name))
		panic("injected cell fault")
	}
	if faultinject.Armed() && faultinject.Fire(faultinject.SimStall, row+"|"+name) {
		// Wedge this worker mid-chunk for the configured stall — the drill
		// the watchdog satellite exists for. The sleep polls the watch
		// state so a reclaimed worker abandons the chunk without touching
		// its (possibly recycled) buffer; with no watchdog armed the stall
		// simply elapses and the chunk is then served normally, so results
		// are unchanged — only slower.
		xtrace.Active().Instant(xtrace.InstantFault,
			xtrace.ArgStr("point", faultinject.SimStall), xtrace.ArgStr("cell", row+"|"+name))
		deadline := time.Now().Add(faultinject.StallDuration())
		for time.Now().Before(deadline) {
			if ws != nil && ws.state.Load() == wsStalled {
				return nil // the watchdog reclaimed this cell; the caller's CAS sees wsStalled
			}
			time.Sleep(time.Millisecond)
		}
	}
	a.AccessBatch(chunk)
	if s.Probe != nil {
		s.Probe.RowSample(row, phase, name, a.Costs())
		if ep != nil {
			deliverExplain(ep, row, phase, name, a)
		}
	}
	return nil
}

// phaseClock stamps the row's warmup→measured crossover: the wall time at
// which the last simulator left the warmup segment. With the barrier gone
// the phases of different simulators overlap; the stamp is where every
// sim has finished warming, which is what the per-phase wall-time split
// in the manifest means.
type phaseClock struct {
	mu   sync.Mutex
	left int
	at   time.Time
}

// cross records that one simulator is done with warmup (by crossing into
// measured, failing, or hitting end-of-stream).
func (p *phaseClock) cross() {
	p.mu.Lock()
	p.left--
	if p.left == 0 {
		p.at = time.Now()
	}
	p.mu.Unlock()
}

// crossedAt returns the crossover stamp, zero if some simulator never
// crossed.
func (p *phaseClock) crossedAt() time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.at
}

// pipePhase maps a ring segment to its mm phase label.
func pipePhase(segment int) string {
	if segment == 0 {
		return mm.PhaseWarmup
	}
	return mm.PhaseMeasured
}
