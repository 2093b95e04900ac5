package mm

import (
	"context"
	"errors"
	"testing"

	"addrxlat/internal/hashutil"
)

// collectSampler records every sample it receives.
type collectSampler struct {
	phases   []string
	algs     []string
	accesses []uint64
	costs    []Costs
}

func (s *collectSampler) Sample(phase, alg string, c Costs) {
	s.phases = append(s.phases, phase)
	s.algs = append(s.algs, alg)
	s.accesses = append(s.accesses, c.Accesses)
	s.costs = append(s.costs, c)
}

// sampleReqs draws the bimodal-ish request mix the other mm tests use.
func sampleReqs(n int) []uint64 {
	r := hashutil.NewRNG(99)
	reqs := make([]uint64, n)
	for i := range reqs {
		if r.Uint64n(100) < 90 {
			reqs[i] = r.Uint64n(1 << 10)
		} else {
			reqs[i] = r.Uint64n(1 << 15)
		}
	}
	return reqs
}

// runWarmChunks is the two-phase methodology over the chunk runner, the
// way the harnesses drive it: warmup in chunks of every, counter reset,
// measured in chunks of every.
func runWarmChunks(ctx context.Context, a Algorithm, warm, meas []uint64, every int, s Sampler) (Costs, error) {
	if err := RunPhaseChunksCtx(ctx, a, SliceChunks(warm, every), s, PhaseWarmup); err != nil {
		return a.Costs(), err
	}
	a.ResetCosts()
	err := RunPhaseChunksCtx(ctx, a, SliceChunks(meas, every), s, PhaseMeasured)
	return a.Costs(), err
}

// TestRunSampledMatchesRun pins the telemetry guarantee at the mm layer:
// a sampled run — the request slice fed through the chunk runner in
// sampling intervals — leaves every algorithm's final counters identical
// to a single-batch Run, with one increasing sample per chunk ending at
// the final counters.
func TestRunSampledMatchesRun(t *testing.T) {
	reqs := sampleReqs(30000)
	plain := allAlgorithms(t, 7)
	sampled := allAlgorithms(t, 7)
	for i := range plain {
		want := Run(plain[i], reqs)
		s := &collectSampler{}
		if err := RunPhaseChunksCtx(context.Background(), sampled[i], SliceChunks(reqs, 777), s, PhaseMeasured); err != nil {
			t.Fatal(err)
		}
		if got := sampled[i].Costs(); got != want {
			t.Errorf("%s: sampled run differs: got %v want %v", plain[i].Name(), got, want)
		}
		wantSamples := (len(reqs) + 776) / 777
		if len(s.costs) != wantSamples {
			t.Errorf("%s: got %d samples, want %d", plain[i].Name(), len(s.costs), wantSamples)
		}
		last := s.costs[len(s.costs)-1]
		if last != want {
			t.Errorf("%s: final sample %v does not match final counters %v", plain[i].Name(), last, want)
		}
		for j := 1; j < len(s.accesses); j++ {
			if s.accesses[j] <= s.accesses[j-1] {
				t.Fatalf("%s: sample accesses not increasing: %d then %d", plain[i].Name(), s.accesses[j-1], s.accesses[j])
			}
		}
	}
}

// TestRunWarmSampledMatchesRunWarm is the two-phase variant: identical
// counters to RunWarm, and samples labeled with both phases in order.
func TestRunWarmSampledMatchesRunWarm(t *testing.T) {
	reqs := sampleReqs(40000)
	warm, meas := reqs[:20000], reqs[20000:]
	plain := allAlgorithms(t, 3)
	sampled := allAlgorithms(t, 3)
	for i := range plain {
		want := RunWarm(plain[i], warm, meas)
		s := &collectSampler{}
		got, err := runWarmChunks(context.Background(), sampled[i], warm, meas, 4096, s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: sampled warm run differs: got %v want %v", plain[i].Name(), got, want)
		}
		sawWarm, sawMeas := false, false
		for j, ph := range s.phases {
			switch ph {
			case PhaseWarmup:
				if sawMeas {
					t.Fatalf("%s: warmup sample after measured sample", plain[i].Name())
				}
				sawWarm = true
			case PhaseMeasured:
				sawMeas = true
			default:
				t.Fatalf("%s: unknown phase %q", plain[i].Name(), ph)
			}
			if s.algs[j] != plain[i].Name() {
				t.Fatalf("%s: sample attributed to %q", plain[i].Name(), s.algs[j])
			}
		}
		if !sawWarm || !sawMeas {
			t.Errorf("%s: phases warmup=%v measured=%v, want both", plain[i].Name(), sawWarm, sawMeas)
		}
	}
}

// TestRunSampledNilSamplerIsRun checks the degenerate shapes of the chunk
// runner: no sampler is exactly Run, and every <= 0 feeds the window as a
// single chunk with a single sample.
func TestRunSampledNilSamplerIsRun(t *testing.T) {
	reqs := sampleReqs(10000)
	want := Run(allAlgorithms(t, 1)[0], reqs)
	a := allAlgorithms(t, 1)[0]
	if err := RunPhaseChunksCtx(context.Background(), a, SliceChunks(reqs, 100), nil, PhaseMeasured); err != nil {
		t.Fatal(err)
	}
	if got := a.Costs(); got != want {
		t.Errorf("nil sampler: got %v want %v", got, want)
	}
	c := allAlgorithms(t, 1)[0]
	s := &collectSampler{}
	if err := RunPhaseChunksCtx(context.Background(), c, SliceChunks(reqs, 0), s, PhaseMeasured); err != nil {
		t.Fatal(err)
	}
	if got := c.Costs(); got != want {
		t.Errorf("every=0: got %v want %v", got, want)
	}
	if len(s.costs) != 1 {
		t.Errorf("every=0 produced %d samples, want 1", len(s.costs))
	}
}

// TestRunWarmCtxMatchesRunWarm pins the cancellation guarantee: with a
// live context the chunked two-phase run is byte-identical to RunWarm
// for every Algorithm implementation.
func TestRunWarmCtxMatchesRunWarm(t *testing.T) {
	reqs := sampleReqs(40000)
	warm, meas := reqs[:20000], reqs[20000:]
	plain := allAlgorithms(t, 3)
	chunked := allAlgorithms(t, 3)
	for i := range plain {
		want := RunWarm(plain[i], warm, meas)
		got, err := runWarmChunks(context.Background(), chunked[i], warm, meas, 1<<12, nil)
		if err != nil {
			t.Fatalf("%s: %v", plain[i].Name(), err)
		}
		if got != want {
			t.Errorf("%s: ctx run differs: got %v want %v", plain[i].Name(), got, want)
		}
	}
}

// TestRunWarmCtxCanceled verifies a canceled context stops the run at a
// chunk boundary with partial counters and the context's error.
func TestRunWarmCtxCanceled(t *testing.T) {
	reqs := sampleReqs(10000)
	a := allAlgorithms(t, 1)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := runWarmChunks(ctx, a, reqs, reqs, 1<<12, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Accesses != 0 {
		t.Fatalf("pre-canceled run serviced %d accesses", c.Accesses)
	}
}

// TestRunPhaseSampledCtxSamples verifies sampling fires once per chunk
// under the context-aware chunk runner.
func TestRunPhaseSampledCtxSamples(t *testing.T) {
	reqs := sampleReqs(10000)
	a := allAlgorithms(t, 1)[0]
	s := &collectSampler{}
	if err := RunPhaseChunksCtx(context.Background(), a, SliceChunks(reqs, 1000), s, PhaseMeasured); err != nil {
		t.Fatal(err)
	}
	if len(s.costs) != 10 {
		t.Fatalf("got %d samples, want 10", len(s.costs))
	}
}
