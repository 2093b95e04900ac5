package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"addrxlat/internal/event"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/mm"
	"addrxlat/internal/parallel"
	"addrxlat/internal/workload"
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
// edge — so final counters, observer samples, and explain snapshots are
// byte-identical to running each cell alone over the materialized windows
// (pinned by TestPipelinedMatchesMaterialized). No allocation happens in
// the chunk loop.
//
// Failure shapes match runRow's contract: a panic while serving one
// simulator poisons only that cell (the worker detaches from the ring and
// the survivors keep streaming); a canceled context stops every worker at
// a chunk boundary and is returned as the row-fatal error. After a clean
// row the observer gets the phase wall-time split; on every exit path it
// gets the row's end (event.KindRing), after the ring's producer and
// every worker have stopped reporting. rowStart is zero without an
// observer: the executor reads the clock only for one.
func (m *fig1Machine) runRowPipelined(s Scale, gen workload.Generator, sims []mm.Algorithm, cellErrs []error, names []string, rowStart time.Time) error {
	ctx := s.context()
	row := m.row

	// The fill hook is the sweep-kill fault point, once per chunk
	// (crash-resume drills need a kill mid-row, not at a row edge), and
	// reports every publish to the observer. Without either the ring
	// runs unhooked and reads no clock.
	var blocked time.Duration // the producer's; read after Stop joins it
	var hook func(workload.Publish)
	if faultinject.Armed() || s.Observer != nil {
		hook = func(p workload.Publish) {
			if faultinject.Armed() && faultinject.Fire(faultinject.SweepKill, row) {
				faultinject.Kill(fmt.Sprintf("row %s, %s chunk %d", row, pipePhase(p.Segment), p.Index))
			}
			if s.Observer != nil {
				blocked += p.Wait
				s.Observer.Observe(event.Event{Kind: event.KindPublish, Row: row, At: p.At, Seq: p.Seq,
					RingWait: p.Wait, Batch: p.Fill, Ring: p.Stats})
			}
		}
	}
	var ring *workload.Ring
	defer func() {
		var st workload.RingStats
		if ring != nil {
			ring.Stop()
			st = ring.Stats()
		}
		if s.Observer != nil {
			now := time.Now()
			s.Observer.Observe(event.Event{Kind: event.KindRing, Row: row, At: now,
				Elapsed: now.Sub(rowStart), RingWait: blocked, Ring: st})
		}
	}()
	var err error
	ring, err = workload.NewRing(gen, streamChunk, []int{m.warmupN, m.measuredN},
		workload.DefaultLookahead, len(sims), workload.WithFillHook(hook))
	if err != nil {
		return err
	}

	// The ring blocks in condition variables, not channels, so a watcher
	// translates context cancellation into Stop — waking the producer and
	// any worker blocked on an unpublished chunk. The watcher is joined
	// before the row ends, so its mark lands before the row's end.
	watchDone, watchExit := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watchExit)
		select {
		case <-ctx.Done():
			s.mark(event.MarkCancel, row, "", "")
			ring.Stop()
		case <-watchDone:
		}
	}()
	defer func() {
		close(watchDone)
		<-watchExit
	}()

	// More simulators than workers: a gate bounds how many simulate at
	// once. It is claimed per chunk, not per row, so every simulator keeps
	// making progress (and releasing ring slots) no matter the ratio.
	var gate *parallel.Gate
	if workers := s.rowWorkers(); workers < len(sims) {
		gate = parallel.NewGate(workers)
	}

	clock := &phaseClock{left: len(sims), timed: s.Observer != nil}
	werr := m.runWorkers(s, ring, gate, clock, sims, cellErrs, names, rowStart)
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("experiments: row %s canceled at a chunk boundary: %w", row, cerr)
	}
	if werr != nil {
		// Not cancellation and not a per-cell panic (those land in
		// cellErrs): a harness failure, fatal for the row.
		return werr
	}
	if s.Observer != nil {
		now := time.Now()
		warmupAt := clock.crossedAt()
		if warmupAt.IsZero() {
			warmupAt = now
		}
		s.Observer.Observe(event.Event{Kind: event.KindPhase, Row: row, Phase: mm.PhaseWarmup, At: warmupAt,
			Accesses: m.warmupN, Elapsed: warmupAt.Sub(rowStart)})
		s.Observer.Observe(event.Event{Kind: event.KindPhase, Row: row, Phase: mm.PhaseMeasured, At: now,
			Accesses: m.measuredN, Elapsed: now.Sub(warmupAt)})
	}
	return nil
}

// readsWarmupCosts reports whether the observer may read the costs of
// warm-up samples (event.WarmupReader). When it may not, the row
// executor warms every simulator that implements mm.Warmer by state.
func (s Scale) readsWarmupCosts() bool {
	if w, ok := s.Observer.(event.WarmupReader); ok {
		return w.ReadsWarmupCosts()
	}
	return s.Observer != nil
}

// mark reports a KindMark event stamped now, when an observer is
// attached.
func (s Scale) mark(name, row, alg, note string) {
	if s.Observer != nil {
		s.Observer.Observe(event.Event{Kind: event.KindMark, Name: name, Row: row, Alg: alg, Note: note, At: time.Now()})
	}
}

// runWorkers starts one worker goroutine per simulator and joins them
// through one collector: each worker sends one token on done when it
// returns. A worker panic outside serveChunk (which poisons only its own
// cell) is recovered into the worker's error and stops the ring, so the
// other workers drain instead of waiting on chunks that will never be
// released; the joined worker errors are fatal for the row.
//
// With Scale.Watchdog armed, every worker also heartbeats through a
// watchState, and a monitor goroutine declares any worker that spends
// longer than the timeout inside one chunk stalled: the cell degrades to
// a footnoted error row, the worker's gate slot and ring references are
// reclaimed so the rest of the row keeps streaming, and the monitor
// sends the worker's token itself (waiting for the stuck goroutine would
// wedge the row, which is the exact failure the watchdog exists to
// survive). The stuck goroutine itself is not killed — Go cannot — but
// everything it owned is released and its results are discarded. The
// serving→{idle,stalled} CAS picks exactly one sender per worker.
func (m *fig1Machine) runWorkers(s Scale, ring *workload.Ring, gate *parallel.Gate, clock *phaseClock, sims []mm.Algorithm, cellErrs []error, names []string, rowStart time.Time) error {
	ctx := s.context()
	row := m.row
	wd := s.Watchdog
	wss := make([]*watchState, len(sims))
	if wd > 0 {
		for i := range wss {
			wss[i] = &watchState{}
		}
	}
	done := make(chan struct{}, len(sims))
	werrs := make([]error, len(sims))
	for i := range sims {
		go func() {
			var werr error
			defer func() {
				if r := recover(); r != nil {
					werr = fmt.Errorf("experiments: row %s worker %s panicked: %v", row, names[i], r)
					ring.Stop()
				}
				if ws := wss[i]; ws != nil && ws.state.Load() == wsStalled {
					return // the monitor reclaimed this cell and signaled for it
				}
				werrs[i] = werr
				done <- struct{}{}
			}()
			// The pprof labels make CPU profiles attribute pipeline time
			// per (row, algorithm) worker.
			pprof.Do(ctx, pprof.Labels("addrxlat_row", row, "addrxlat_alg", names[i]), func(context.Context) {
				werr = m.simWorker(s, ring, gate, clock, sims[i], cellErrs, names, row, i, rowStart, wss[i])
			})
		}()
	}
	if wd > 0 {
		// The monitor: every wd/4 (at least 1ms) it reclaims each worker
		// that has been inside one chunk for longer than wd.
		stop := make(chan struct{})
		defer close(stop)
		tick := max(wd/4, time.Millisecond)
		go func() {
			t := time.NewTicker(tick)
			defer t.Stop()
			for {
				select {
				case <-stop:
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
					s.mark(event.MarkQuarantine, row, names[i], "stalled")
					gate.Leave()
					ring.Release(cur)
					ring.DetachFrom(cur + 1)
					crossOnce(ws, clock)
					done <- struct{}{}
				}
			}
		}()
	}
	for range sims {
		<-done
	}
	return errors.Join(werrs...)
}

// simWorker drives one simulator over the whole row: every chunk of both
// segments in order, resetting the sim's counters at the warmup→measured
// edge. It returns nil for a poisoned cell (recorded in cellErrs[i]),
// errStalled when the watchdog reclaimed the cell mid-chunk, and any
// other error only for cancellation. ws is nil when no watchdog is armed.
//
// The warm-up's costs are reset unread unless the observer reads them,
// so then a simulator that implements mm.Warmer gets its warm-up chunks
// through Warm: the measured window starts from the same state, and the
// warm-up samples keep Costs.Accesses and their stage times.
//
// With an observer, each chunk's sample carries its stage times from
// stamps that tile the worker's life: the first ring wait opens at the
// row's start (until a worker runs, ring set-up included, it is by
// definition waiting on the generator's lead chunks) and every later one
// where the previous AccessBatch call closed, so the sample's delivery
// and the ring release count as waiting on the ring. Set-up, scheduler
// and hand-off delay all land in wait time, which keeps busy+blocked ≈
// row wall even on saturated machines.
func (m *fig1Machine) simWorker(s Scale, ring *workload.Ring, gate *parallel.Gate, clock *phaseClock, a mm.Algorithm, cellErrs []error, names []string, row string, i int, rowStart time.Time, ws *watchState) error {
	ctx := s.context()
	cur, seg := 0, 0
	inWarmup := true
	timed := s.Observer != nil
	last := rowStart
	warmer, _ := a.(mm.Warmer)
	if s.readsWarmupCosts() {
		warmer = nil
	}

	for {
		if cerr := ctx.Err(); cerr != nil {
			ring.DetachFrom(cur)
			return fmt.Errorf("experiments: cell %s|%s canceled at a %s chunk boundary: %w",
				row, names[i], pipePhase(seg), cerr)
		}
		c, ok := ring.Get(cur)
		if !ok {
			if cerr := ctx.Err(); cerr != nil {
				ring.DetachFrom(cur)
				return fmt.Errorf("experiments: cell %s|%s canceled at a %s chunk boundary: %w",
					row, names[i], pipePhase(seg), cerr)
			}
			break // end of stream
		}
		var got time.Time
		if timed {
			got = time.Now()
		}
		if c.Segment != seg {
			// Warmup → measured edge: this worker's own counter reset, no
			// cross-simulator barrier. The ring never straddles segments, so
			// the reset lands exactly where mm.RunWarm puts it.
			seg = c.Segment
			a.ResetCosts()
			warmer = nil
			if inWarmup {
				inWarmup = false
				crossOnce(ws, clock)
			}
		}
		gate.Enter()
		admitted := got
		if timed && gate != nil {
			admitted = time.Now()
		}
		if ws != nil {
			// Heartbeat for the watchdog: cursor and beat first, then the
			// idle→serving flip the monitor keys on.
			ws.cursor.Store(int64(cur))
			ws.beat.Store(time.Now().UnixNano())
			ws.state.Store(wsServing)
		}
		cellErr := m.serveChunk(s, a, warmer, c.Data, row, names[i], ws)
		if ws != nil && !ws.state.CompareAndSwap(wsServing, wsIdle) {
			// The monitor won the race: it already recorded the stall,
			// released this worker's ring references and gate slot, and
			// signaled the collector. Exit without touching any of them.
			return errStalled
		}
		if cellErr == nil && timed {
			e := event.Sample(row, pipePhase(seg), names[i], a, s.Explain)
			e.At, e.Seq = time.Now(), c.Seq
			e.RingWait, e.GateWait, e.Batch = got.Sub(last), admitted.Sub(got), e.At.Sub(admitted)
			s.Observer.Observe(e)
			last = e.At
		}
		gate.Leave()
		ring.Release(cur)
		cur++
		if cellErr != nil {
			cellErrs[i] = cellErr
			s.mark(event.MarkQuarantine, row, names[i], "")
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

// serveChunk services one chunk on one simulator, through warm when it
// is not nil, with the fault-injection points at the chunk boundary. A
// panic (algorithm bug or injected cell fault) is recovered into the
// returned error.
func (m *fig1Machine) serveChunk(s Scale, a mm.Algorithm, warm mm.Warmer, chunk []uint64, row, name string, ws *watchState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: cell %s|%s panicked: %v", row, name, r)
		}
	}()
	if faultinject.Armed() && faultinject.Fire(faultinject.CellPanic, row+"|"+name) {
		s.mark(event.MarkFault, row, name, faultinject.CellPanic)
		panic("injected cell fault")
	}
	if faultinject.Armed() && faultinject.Fire(faultinject.SimStall, row+"|"+name) {
		// Wedge this worker mid-chunk for the configured stall — the drill
		// the watchdog satellite exists for. The sleep polls the watch
		// state so a reclaimed worker abandons the chunk without touching
		// its (possibly recycled) buffer; with no watchdog armed the stall
		// simply elapses and the chunk is then served normally, so results
		// are unchanged — only slower.
		s.mark(event.MarkFault, row, name, faultinject.SimStall)
		deadline := time.Now().Add(faultinject.StallDuration())
		for time.Now().Before(deadline) {
			if ws != nil && ws.state.Load() == wsStalled {
				return nil // the watchdog reclaimed this cell; the caller's CAS sees wsStalled
			}
			time.Sleep(time.Millisecond)
		}
	}
	if warm != nil {
		warm.Warm(chunk)
		return nil
	}
	a.AccessBatch(chunk)
	return nil
}

// phaseClock stamps the row's warmup→measured crossover: the wall time at
// which the last simulator left the warmup segment. With the barrier gone
// the phases of different simulators overlap; the stamp is where every
// sim has finished warming, which is what the per-phase wall-time split
// in the manifest means. It reads the clock only when timed (an observer
// will receive the split).
type phaseClock struct {
	mu    sync.Mutex
	left  int
	timed bool
	at    time.Time
}

// cross records that one simulator is done with warmup (by crossing into
// measured, failing, or hitting end-of-stream).
func (p *phaseClock) cross() {
	p.mu.Lock()
	p.left--
	if p.left == 0 && p.timed {
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
