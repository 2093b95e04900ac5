package mm

import (
	"fmt"
	"reflect"
	"testing"

	"addrxlat/internal/core"
	"addrxlat/internal/explain"
	"addrxlat/internal/hashutil"
)

// stagedTrace builds a trace shaped to exercise every staged-kernel path:
// heavy consecutive repeats (the run-length collapse), a hot set small
// enough to promote regions and stay TLB-resident (the repeat-key
// shortcut), and a uniform tail that forces faults, evictions, and TLB
// shootdowns mid-chunk.
func stagedTrace(seed uint64, n int) []uint64 {
	r := hashutil.NewRNG(seed)
	reqs := make([]uint64, n)
	var prev uint64
	for i := range reqs {
		switch p := r.Float64(); {
		case i > 0 && p < 0.35:
			reqs[i] = prev // consecutive repeat
		case p < 0.85:
			reqs[i] = r.Uint64n(1 << 9) // hot set
		default:
			reqs[i] = r.Uint64n(1 << 15) // cold tail
		}
		prev = reqs[i]
	}
	return reqs
}

// TestStagedBatchMatchesScalar is the batch-equivalence contract, pinned
// directly for every algorithm: servicing a trace through AccessBatch
// (the staged kernels where an algorithm has them) must leave cost
// counters — and, with attribution armed, explain counters — identical to
// repeated scalar Access calls (matchesScalar). Iceberg allocation never
// fails on stagedTrace, so a single-choice Decoupled on an adversarial
// trace covers Z's failure path too (TestStagedBatchFailurePath).
func TestStagedBatchMatchesScalar(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, withExplain := range []bool{false, true} {
			reqs := stagedTrace(seed*1000+3, 40000)
			scalar := allAlgorithms(t, seed)
			batched := [2][]Algorithm{allAlgorithms(t, seed), allAlgorithms(t, seed)}
			for i := range scalar {
				matchesScalar(t, fmt.Sprintf("seed %d", seed), scalar[i], [2]Algorithm{batched[0][i], batched[1][i]}, reqs, withExplain)
			}
		}
	}
}

// batchChunks are matchesScalar's two uneven chunkings.
var batchChunks = [2]int{777, 1023}

// matchesScalar serves reqs to scalar one Access at a time and to each
// of batched through AccessBatch in one of batchChunks' chunkings, so
// runs and repeat-key state cross chunk boundaries, where the kernels'
// memory of the previous request resets. The costs, and with
// attribution armed the explain counters, must be identical. With
// attribution armed, the attribution must also add up to the costs on
// either path: after the trace as warm-up and ResetCosts, a second pass
// attributes every IO, TLB miss and decoding miss it charges, and its
// failure IOs equal its decoding misses — Theorem 4 charges a request to
// a page in F one IO plus one decoding miss, and nothing else charges a
// decoding miss, which is the identity serve's retry trigger reads. The
// three algorithms must be built alike and not yet have served a
// request.
func matchesScalar(t *testing.T, label string, scalar Algorithm, batched [2]Algorithm, reqs []uint64, withExplain bool) {
	t.Helper()
	name := scalar.Name()
	if withExplain {
		EnableExplain(scalar)
		for _, b := range batched {
			EnableExplain(b)
		}
	}
	serveBatched := func(b Algorithm, chunk int) {
		for lo := 0; lo < len(reqs); lo += chunk {
			b.AccessBatch(reqs[lo:min(lo+chunk, len(reqs))])
		}
	}
	for _, v := range reqs {
		scalar.Access(v)
	}
	for k, chunk := range batchChunks {
		b := batched[k]
		serveBatched(b, chunk)
		if sco, bco := scalar.Costs(), b.Costs(); sco != bco {
			t.Errorf("%s explain=%v chunk=%d %s: AccessBatch diverged:\n scalar %+v\n batch  %+v",
				label, withExplain, chunk, name, sco, bco)
		}
		if withExplain {
			if se, be := explainOf(t, scalar), explainOf(t, b); !reflect.DeepEqual(se, be) {
				t.Errorf("%s chunk=%d %s: explain counters diverged:\n scalar %+v\n batch  %+v",
					label, chunk, name, se, be)
			}
		}
	}
	if !withExplain {
		return
	}
	addsUp := func(path string, a Algorithm, serve func()) {
		a.ResetCosts()
		serve()
		c, e := a.Costs(), explainOf(t, a)
		if e.IOs() != c.IOs || e.TLBMisses() != c.TLBMisses || e.DecodeMisses != c.DecodingMisses ||
			e.IOFailure != c.DecodingMisses {
			t.Errorf("%s %s %s: attribution does not add up to the costs after ResetCosts:\n costs   %+v\n explain %+v",
				label, name, path, c, e)
		}
	}
	addsUp("Access", scalar, func() {
		for _, v := range reqs {
			scalar.Access(v)
		}
	})
	for k, chunk := range batchChunks {
		b := batched[k]
		addsUp(fmt.Sprintf("AccessBatch(chunk=%d)", chunk), b, func() { serveBatched(b, chunk) })
	}
}

// failureTrace is an adversarial trace for a single-choice Decoupled:
// 40% of requests go to 3B pages that hash to z's bucket 0, chosen as
// core.TestFailureSetLifecycle chooses them, so about 2B of them are
// resident without a frame (paging failures); 30% repeat the previous
// request; the rest are uniform over V, so Y keeps evicting, failed
// pages among them.
func failureTrace(t *testing.T, z *Decoupled, seed uint64, n int) []uint64 {
	t.Helper()
	p := z.Params()
	alloc := z.Scheme().Allocator()
	var sameBucket []uint64
	for v := uint64(0); len(sameBucket) < 3*p.B; v++ {
		if v >= p.V {
			t.Fatalf("fewer than %d pages share bucket 0", 3*p.B)
		}
		if alloc.Decode(v, 0)/uint64(p.B) == 0 { // single choice: φ(v) = bucket·B + slot
			sameBucket = append(sameBucket, v)
		}
	}
	r := hashutil.NewRNG(seed)
	reqs := make([]uint64, n)
	for i := range reqs {
		switch x := r.Float64(); {
		case i > 0 && x < 0.3:
			reqs[i] = reqs[i-1]
		case x < 0.7:
			reqs[i] = sameBucket[r.Uint64n(uint64(len(sameBucket)))]
		default:
			reqs[i] = r.Uint64n(p.V)
		}
	}
	return reqs
}

// TestStagedBatchFailurePath runs matchesScalar on a single-choice
// Decoupled over failureTrace. Before comparing, a scalar pass checks
// that the trace reaches all three of the batch path's failure cases:
// requests to failed pages, consecutive repeats of a failed page (the
// batch path's run-length collapse re-charges them) and failed pages
// that Y evicts (paged out of F).
func TestStagedBatchFailurePath(t *testing.T) {
	build := func(seed uint64) *Decoupled {
		z, err := NewDecoupled(DecoupledConfig{Alloc: core.SingleChoice, RAMPages: 1 << 10, VirtualPages: 1 << 14,
			TLBEntries: 16, ValueBits: 64, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	for _, seed := range []uint64{1, 7, 42} {
		probe := build(seed)
		reqs := failureTrace(t, probe, seed, 30000)
		failedRepeats := 0
		for i, v := range reqs {
			if i > 0 && v == reqs[i-1] && probe.Scheme().IsFailed(v) {
				failedRepeats++
			}
			probe.Access(v)
		}
		// A page leaves F only when Y pages it out.
		failedEvicted := probe.Scheme().TotalFailures() - uint64(probe.Scheme().Failures())
		if probe.FailureHits() == 0 || failedRepeats == 0 || failedEvicted == 0 {
			t.Fatalf("seed %d: trace misses a failure case: %d failure hits, %d repeats of failed pages, %d failed pages evicted",
				seed, probe.FailureHits(), failedRepeats, failedEvicted)
		}
		for _, withExplain := range []bool{false, true} {
			scalar, batched := build(seed), [2]Algorithm{build(seed), build(seed)}
			matchesScalar(t, fmt.Sprintf("single-choice seed %d", seed), scalar, batched, reqs, withExplain)
			for _, b := range batched {
				if got, want := b.(*Decoupled).FailureHits(), scalar.FailureHits(); got != want {
					t.Errorf("seed %d explain=%v: batch FailureHits %d, scalar %d", seed, withExplain, got, want)
				}
			}
		}
	}
}

// explainOf snapshots an algorithm's explain counters, failing if
// attribution was supposed to be armed but is not.
func explainOf(t *testing.T, a Algorithm) explain.Counters {
	t.Helper()
	if a.Explain() == nil {
		t.Fatalf("%s: explain not armed", a.Name())
	}
	return a.Explain().Snapshot()
}

// TestStagedBatchScratchReuse pins the steady-state allocation contract:
// after the first chunk sizes an algorithm's own column buffers (the
// decoupled kernel's Y-miss list, its packed TLB-miss list and the TLB's
// column buffer, the recency stack's key table and, with attribution
// armed, the TLB-miss classifier's table), staged batch execution stays
// allocation-free for the algorithms with staged kernels, armed or not.
func TestStagedBatchScratchReuse(t *testing.T) {
	reqs := stagedTrace(9, 1<<14)
	for _, withExplain := range []bool{false, true} {
		for _, idx := range []int{0, 1, 2, 4, 5} { // HugePage h=1/h=64, Decoupled, THP, Superpage
			a := allAlgorithms(t, 3)[idx]
			if withExplain {
				EnableExplain(a)
			}
			a.AccessBatch(reqs) // warm caches and size the buffers
			allocs := testing.AllocsPerRun(5, func() {
				a.AccessBatch(reqs)
			})
			if allocs > 0 {
				t.Errorf("%s explain=%v: staged batch allocates %.1f per chunk in steady state",
					a.Name(), withExplain, allocs)
			}
		}
	}
}
