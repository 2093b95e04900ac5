package mm

import (
	"reflect"
	"testing"

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
// repeated scalar Access calls. Two uneven chunkings run so runs and
// repeat-key state cross chunk boundaries, where the kernels' memory of
// the previous request resets.
func TestStagedBatchMatchesScalar(t *testing.T) {
	chunks := []int{777, 1023}
	for _, seed := range []uint64{1, 7, 42} {
		for _, withExplain := range []bool{false, true} {
			reqs := stagedTrace(seed*1000+3, 40000)
			scalar := allAlgorithms(t, seed)
			batched := [][]Algorithm{allAlgorithms(t, seed), allAlgorithms(t, seed)}
			for i := range scalar {
				name := scalar[i].Name()
				if withExplain {
					EnableExplain(scalar[i])
					for _, b := range batched {
						EnableExplain(b[i])
					}
				}
				for _, v := range reqs {
					scalar[i].Access(v)
				}
				for k, chunk := range chunks {
					b := batched[k][i]
					for lo := 0; lo < len(reqs); lo += chunk {
						b.AccessBatch(reqs[lo:min(lo+chunk, len(reqs))])
					}
					if sco, bco := scalar[i].Costs(), b.Costs(); sco != bco {
						t.Errorf("seed %d explain=%v chunk=%d %s: AccessBatch diverged:\n scalar %+v\n batch  %+v",
							seed, withExplain, chunk, name, sco, bco)
					}
					if withExplain {
						if se, be := explainOf(t, scalar[i]), explainOf(t, b); !reflect.DeepEqual(se, be) {
							t.Errorf("seed %d chunk=%d %s: explain counters diverged:\n scalar %+v\n batch  %+v",
								seed, chunk, name, se, be)
						}
					}
				}
			}
		}
	}
}

// explainOf snapshots an algorithm's explain counters, failing if
// attribution was supposed to be armed but is not.
func explainOf(t *testing.T, a Algorithm) explain.Counters {
	t.Helper()
	e, ok := a.(Explainer)
	if !ok {
		return explain.Counters{}
	}
	if e.Explain() == nil {
		t.Fatalf("%s: explain not armed", a.Name())
	}
	return e.Explain().Snapshot()
}

// TestStagedBatchScratchReuse pins the steady-state allocation contract:
// after the first chunk sizes an algorithm's own column buffers (the
// decoupled kernel's packed miss list, the recency stack's key table and,
// with attribution armed, the TLB-miss classifier's table), staged batch
// execution stays allocation-free for the algorithms with staged kernels,
// armed or not.
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
