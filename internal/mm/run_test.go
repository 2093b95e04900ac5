package mm

import (
	"testing"

	"addrxlat/internal/hashutil"
)

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

// runChunks drives a the way the row executor drives one simulator:
// each window in AccessBatch chunks of at most every requests (the whole
// window when every <= 0), a Costs snapshot after every chunk, and a
// counter reset between consecutive windows. It returns the snapshots of
// each window.
func runChunks(a Algorithm, every int, windows ...[]uint64) [][]Costs {
	snaps := make([][]Costs, len(windows))
	for w, reqs := range windows {
		if w > 0 {
			a.ResetCosts()
		}
		n := every
		if n <= 0 {
			n = len(reqs)
		}
		for len(reqs) > 0 {
			k := min(n, len(reqs))
			a.AccessBatch(reqs[:k])
			reqs = reqs[k:]
			snaps[w] = append(snaps[w], a.Costs())
		}
	}
	return snaps
}

// TestRunSampledMatchesRun pins the Batcher contract the chunk-boundary
// observers rely on: feeding a request slice through AccessBatch in
// chunks — of one request, of an odd size, or whole — and snapshotting
// Costs after every chunk leaves every algorithm's final counters
// identical to a single-batch Run, with one strictly increasing snapshot
// per chunk ending at the final counters.
func TestRunSampledMatchesRun(t *testing.T) {
	reqs := sampleReqs(30000)
	for _, every := range []int{1, 777, 0} {
		plain := allAlgorithms(t, 7)
		sampled := allAlgorithms(t, 7)
		for i := range plain {
			want := Run(plain[i], reqs)
			snaps := runChunks(sampled[i], every, reqs)[0]
			if got := sampled[i].Costs(); got != want {
				t.Errorf("%s every=%d: chunked run differs: got %v want %v", plain[i].Name(), every, got, want)
			}
			wantSnaps := 1
			if every > 0 {
				wantSnaps = (len(reqs) + every - 1) / every
			}
			if len(snaps) != wantSnaps {
				t.Errorf("%s every=%d: got %d snapshots, want %d", plain[i].Name(), every, len(snaps), wantSnaps)
			}
			if last := snaps[len(snaps)-1]; last != want {
				t.Errorf("%s every=%d: final snapshot %v does not match final counters %v", plain[i].Name(), every, last, want)
			}
			for j := 1; j < len(snaps); j++ {
				if snaps[j].Accesses <= snaps[j-1].Accesses {
					t.Fatalf("%s every=%d: snapshot accesses not increasing: %d then %d",
						plain[i].Name(), every, snaps[j-1].Accesses, snaps[j].Accesses)
				}
			}
		}
	}
}

// TestRunSampledNilSamplerIsRun checks the degenerate shapes of a chunked
// run: chunks fed with no observer reading Costs between them are exactly
// Run, and every <= 0 feeds the window as a single chunk with a single
// snapshot.
func TestRunSampledNilSamplerIsRun(t *testing.T) {
	reqs := sampleReqs(10000)
	want := Run(allAlgorithms(t, 1)[0], reqs)
	a := allAlgorithms(t, 1)[0]
	for rest := reqs; len(rest) > 0; {
		k := min(100, len(rest))
		a.AccessBatch(rest[:k])
		rest = rest[k:]
	}
	if got := a.Costs(); got != want {
		t.Errorf("no observer: got %v want %v", got, want)
	}
	for _, every := range []int{0, -1} {
		c := allAlgorithms(t, 1)[0]
		snaps := runChunks(c, every, reqs)[0]
		if got := c.Costs(); got != want {
			t.Errorf("every=%d: got %v want %v", every, got, want)
		}
		if len(snaps) != 1 {
			t.Errorf("every=%d produced %d snapshots, want 1", every, len(snaps))
		}
	}
}

// TestRunWarmSampledMatchesRunWarm is the two-phase variant: identical
// counters to RunWarm, and the measured window's snapshots count from the
// counter reset, not from the start of the stream.
func TestRunWarmSampledMatchesRunWarm(t *testing.T) {
	reqs := sampleReqs(40000)
	warm, meas := reqs[:20000], reqs[20000:]
	plain := allAlgorithms(t, 3)
	sampled := allAlgorithms(t, 3)
	for i := range plain {
		want := RunWarm(plain[i], warm, meas)
		snaps := runChunks(sampled[i], 4096, warm, meas)
		if got := sampled[i].Costs(); got != want {
			t.Errorf("%s: chunked warm run differs: got %v want %v", plain[i].Name(), got, want)
		}
		if got := snaps[0][len(snaps[0])-1].Accesses; got != uint64(len(warm)) {
			t.Errorf("%s: warmup ends at %d accesses, want %d", plain[i].Name(), got, len(warm))
		}
		if got := snaps[1][0].Accesses; got != 4096 {
			t.Errorf("%s: first measured snapshot at %d accesses, want 4096 (counted from the reset)", plain[i].Name(), got)
		}
	}
}

// TestRunWarmCtxMatchesRunWarm checks that the two-phase run does not
// depend on where the chunk boundaries fall: chunk sizes that divide
// neither window, and a whole-window chunk, all reproduce RunWarm for
// every Algorithm implementation.
func TestRunWarmCtxMatchesRunWarm(t *testing.T) {
	reqs := sampleReqs(40000)
	warm, meas := reqs[:20000], reqs[20000:]
	for _, every := range []int{333, 1<<12 + 1, 0} {
		plain := allAlgorithms(t, 3)
		chunked := allAlgorithms(t, 3)
		for i := range plain {
			want := RunWarm(plain[i], warm, meas)
			runChunks(chunked[i], every, warm, meas)
			if got := chunked[i].Costs(); got != want {
				t.Errorf("%s every=%d: chunked warm run differs: got %v want %v", plain[i].Name(), every, got, want)
			}
		}
	}
}

// TestRunPhaseSampledCtxSamples pins the x-axis of every cost curve: a
// snapshot taken after each chunk counts exactly the requests served so
// far, one chunk length per AccessBatch, for every algorithm.
func TestRunPhaseSampledCtxSamples(t *testing.T) {
	reqs := sampleReqs(10000)
	for _, a := range allAlgorithms(t, 1) {
		snaps := runChunks(a, 1000, reqs)[0]
		if len(snaps) != 10 {
			t.Fatalf("%s: got %d snapshots, want 10", a.Name(), len(snaps))
		}
		for j, c := range snaps {
			if want := uint64(1000 * (j + 1)); c.Accesses != want {
				t.Errorf("%s: snapshot %d at %d accesses, want %d", a.Name(), j, c.Accesses, want)
			}
		}
	}
}
