package serve

import (
	"runtime"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/faultinject"
	"addrxlat/internal/mm"
	"addrxlat/internal/workload"
)

// testSim builds a small serving run over a huge-page simulator with a
// uniform page workload at the given offered-load multiple of capacity.
func testSim(t *testing.T, seed uint64, load float64, governor bool) *Sim {
	t.Helper()
	a, err := mm.NewHugePage(mm.HugePageConfig{HugePageSize: 1, TLBEntries: 64, RAMPages: 1 << 12, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewUniform(1<<14, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed:        seed,
		Requests:    4000,
		BlockPages:  64,
		QueueCap:    128,
		DeadlineNs:  0,
		MaxAttempts: 3,
		RetryBaseNs: 1000,
	}
	if governor {
		cfg.Governor = GovernorConfig{WindowNs: 1, QueueHigh: 96, MissNum: 1, MissDen: 5, RecoverDepth: 24, DegradedDiv: 4}
	}
	s, err := New(cfg, a, gen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := s.Calibrate(1000)
	if mean < 1 {
		t.Fatalf("calibrated mean %d", mean)
	}
	if governor {
		// Scale deadline and governor window to the calibrated service
		// time so the queue can actually build depth before deadlines
		// drain it: depth ≈ deadline/mean must exceed QueueHigh.
		s.cfg.DeadlineNs = 150 * mean
		s.cfg.Governor.WindowNs = 30 * mean
	}
	s.SetArrivals(workload.NewPoisson(seed+2, float64(mean)/load))
	return s
}

func TestRunDeterministic(t *testing.T) {
	for _, load := range []float64{0.5, 2.0} {
		a := testSim(t, 7, load, true).Run()
		b := testSim(t, 7, load, true).Run()
		if a.Counters != b.Counters || a.HorizonNs != b.HorizonNs ||
			a.Latency.Quantile(0.99) != b.Latency.Quantile(0.99) {
			t.Fatalf("load %g: runs diverged:\n%+v\n%+v", load, a.Counters, b.Counters)
		}
		if err := a.Counters.CheckIdentity(); err != nil {
			t.Fatalf("load %g: %v", load, err)
		}
	}
}

func TestUnderloadCompletesEverything(t *testing.T) {
	r := testSim(t, 1, 0.5, false).Run()
	c := r.Counters
	if c.Offered != 4000 {
		t.Fatalf("offered %d, want 4000", c.Offered)
	}
	// No deadline, 0.5× load, bounded queue: every request should admit
	// and complete.
	if c.Completed != c.Offered {
		t.Fatalf("completed %d of %d offered: %+v", c.Completed, c.Offered, c)
	}
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
}

// TestServeOverloadBounded pins that a sustained 2.5× overload run sheds
// deterministically in bounded memory: queue and event heap stay capped,
// and the steady-state half of the run allocates (almost) nothing.
func TestServeOverloadBounded(t *testing.T) {
	s := testSim(t, 42, 2.5, true)
	// Warm the steady state with the first quarter of events, then
	// require the rest of the run to allocate (almost) nothing: pooled
	// requests, fixed ring, reusable heap slice, fixed histogram.
	steps := 0
	for s.Step() {
		steps++
		if steps == 2000 {
			break
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for s.Step() {
	}
	runtime.ReadMemStats(&after)
	r := s.Result()
	c := r.Counters
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if c.Shed+c.TimedOutQueued+c.TimedOutServed+c.RejectedQueue == 0 {
		t.Fatalf("2.5x overload shed/timed out nothing: %+v", c)
	}
	if c.Completed == 0 {
		t.Fatalf("2.5x overload completed nothing: %+v", c)
	}
	if r.MaxQueueDepth > 128 {
		t.Fatalf("queue depth %d exceeded cap 128", r.MaxQueueDepth)
	}
	if r.MaxHeapLen > 4096 {
		t.Fatalf("event heap grew to %d", r.MaxHeapLen)
	}
	if d := after.Mallocs - before.Mallocs; d > 128 {
		t.Fatalf("steady-state run allocated %d objects, want ~0", d)
	}
}

func TestDeadlinesTimeOut(t *testing.T) {
	s := testSim(t, 3, 3.0, false)
	s.cfg.DeadlineNs = 50_000 // tight deadline, no governor: timeouts must appear
	r := s.Run()
	c := r.Counters
	if c.TimedOutQueued+c.TimedOutServed == 0 {
		t.Fatalf("3x load with 50µs deadline timed out nothing: %+v", c)
	}
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
}

func TestTokenBucketThrottles(t *testing.T) {
	s := testSim(t, 5, 2.0, false)
	s.cfg.RefillNs = 4 * s.meanServiceNs // tokens at 1/4 the offered rate
	s.cfg.Burst = 8
	r := s.Run()
	c := r.Counters
	if c.RejectedThrottle == 0 {
		t.Fatalf("starved token bucket rejected nothing: %+v", c)
	}
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
}

// TestRetriesOnFailureIOs drives a decoupled simulator hard enough that
// failure IOs occur, and checks the retry machinery engages and the
// identity still holds. The Sim gets no explain counters: retries read
// failure IOs from the cost model alone.
func TestRetriesOnFailureIOs(t *testing.T) {
	seed := uint64(11)
	// SingleChoice (k=1, Theorem 1) overflows buckets far more readily
	// than Iceberg at small geometries, so failure IOs actually occur.
	a, err := mm.NewDecoupled(mm.DecoupledConfig{
		Alloc: core.SingleChoice, RAMPages: 1 << 10, VirtualPages: 1 << 14,
		TLBEntries: 64, ValueBits: 64, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewUniform(1<<14, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Seed: seed, Requests: 3000, BlockPages: 64, QueueCap: 128,
		MaxAttempts: 3, RetryBaseNs: 500,
	}, a, gen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mean := s.Calibrate(1000)
	s.SetArrivals(workload.NewPoisson(seed+2, float64(mean)/0.9))
	r := s.Run()
	c := r.Counters
	if c.Retries == 0 {
		t.Fatalf("no retries at a configuration known to produce failure IOs: %+v", c)
	}
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
}

func TestServeBurstFault(t *testing.T) {
	if err := faultinject.Arm("serve-burst=burst-cell@1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	s := testSim(t, 9, 1.0, true)
	s.cfg.FaultKey = "burst-cell"
	r := s.Run()
	clean := testSim(t, 9, 1.0, true).Run()
	if r.Counters == clean.Counters {
		t.Fatalf("serve-burst did not perturb the run: %+v", r.Counters)
	}
	if err := r.Counters.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
	if r.MaxQueueDepth > 128 {
		t.Fatalf("burst blew the queue cap: depth %d", r.MaxQueueDepth)
	}
}

func TestGovernorTripsAndRecovers(t *testing.T) {
	s := testSim(t, 21, 2.5, true)
	r := s.Run()
	c := r.Counters
	if c.GovernorTrips == 0 {
		t.Fatalf("2.5x overload never tripped the governor: %+v", c)
	}
	if c.Shed == 0 {
		t.Fatalf("governor tripped but shed nothing: %+v", c)
	}
	if c.Degraded == 0 {
		t.Fatalf("governor tripped but served nothing degraded: %+v", c)
	}
	if err := c.CheckIdentity(); err != nil {
		t.Fatal(err)
	}
}
