package tlb

import (
	"testing"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/policy"
)

// batchTrace yields addresses whose key column (v >> shift) has long
// same-key runs, exercising ProbeFill's run-length collapse.
func batchTrace(seed uint64, n int, shift uint) []uint64 {
	rng := hashutil.NewRNG(seed)
	vs := make([]uint64, n)
	var prev uint64
	for i := range vs {
		switch p := rng.Float64(); {
		case i > 0 && p < 0.4:
			vs[i] = prev + rng.Uint64n(1<<shift)/4 // same translation key, nearby page
		case p < 0.85:
			vs[i] = rng.Uint64n(64 << shift)
		default:
			vs[i] = rng.Uint64n(4096 << shift)
		}
		prev = vs[i]
	}
	return vs
}

// TestProbeFillMatchesScalar pins the columnar probe against its scalar
// decomposition: over uneven chunks of a shared trace, some longer than
// the kernel's block, ProbeFill must leave occupancy and cached keys
// identical to a per-element Lookup/Insert loop, and the packed miss list
// must be exactly the scalar loop's miss sequence appended to the
// caller's slice.
func TestProbeFillMatchesScalar(t *testing.T) {
	const shift, entries = 6, 64
	for _, seed := range []uint64{1, 7, 42} {
		col, err := New(entries, policy.LRUKind, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(entries, policy.LRUKind, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !col.Flat() {
			t.Fatal("LRU TLB expected to be flat")
		}
		vs := batchTrace(seed, 30000, shift)
		rng := hashutil.NewRNG(seed * 31)
		miss := make([]uint64, 0, 1024)
		for lo := 0; lo < len(vs); {
			hi := min(lo+int(rng.Uint64n(2*probeBlock+200))+1, len(vs))
			chunk := vs[lo:hi]
			const sentinel = ^uint64(0)
			miss = append(miss[:0], sentinel) // prefix must survive the append contract
			got, ok := col.ProbeFill(chunk, shift, miss)
			if !ok {
				t.Fatal("ProbeFill refused a flat TLB")
			}
			var want []uint64
			for _, v := range chunk {
				u := v >> shift
				if !ref.Lookup(u) {
					ref.Insert(u)
					want = append(want, u)
				}
			}
			if len(got) != len(want)+1 || got[0] != sentinel {
				t.Fatalf("seed %d chunk [%d,%d): miss list length %d (want prefix + %d)", seed, lo, hi, len(got), len(want))
			}
			for i, u := range want {
				if got[i+1] != u {
					t.Fatalf("seed %d chunk [%d,%d): miss[%d] = %d, scalar says %d", seed, lo, hi, i, got[i+1], u)
				}
			}
			if col.Len() != ref.Len() {
				t.Fatalf("seed %d chunk [%d,%d): Len = %d, scalar %d", seed, lo, hi, col.Len(), ref.Len())
			}
			miss = got
			lo = hi
		}
		// Residency must agree key-for-key, not just in counts.
		for u := uint64(0); u < 4096; u++ {
			if col.Contains(u) != ref.Contains(u) {
				t.Fatalf("seed %d: residency of key %d diverged", seed, u)
			}
		}
	}
}

// TestLookupOrReserveMatchesScalar pins the fused single-probe kernel
// against the Lookup+Insert pair it replaces, including recency effects
// (observed through later evictions).
func TestLookupOrReserveMatchesScalar(t *testing.T) {
	const entries = 16
	fused, err := New(entries, policy.LRUKind, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(entries, policy.LRUKind, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashutil.NewRNG(77)
	for i := 0; i < 50000; i++ {
		u := rng.Uint64n(entries * 3)
		gotHit := fused.LookupOrReserve(u)
		wantHit := ref.Lookup(u)
		if !wantHit {
			ref.Insert(u)
		}
		if gotHit != wantHit {
			t.Fatalf("step %d key %d: fused hit=%v, scalar hit=%v", i, u, gotHit, wantHit)
		}
		if fused.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, scalar %d", i, fused.Len(), ref.Len())
		}
	}
	for u := uint64(0); u < entries*3; u++ {
		if fused.Contains(u) != ref.Contains(u) {
			t.Fatalf("residency of key %d diverged", u)
		}
	}
}

// TestProbeFillRequiresFlat pins the graceful refusal on a non-flat TLB:
// neither the TLB nor the miss list may change.
func TestProbeFillRequiresFlat(t *testing.T) {
	tl, err := New(16, policy.ARCKind, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Flat() {
		t.Skip("ARC TLB unexpectedly flat")
	}
	buf := []uint64{11, 22}
	got, ok := tl.ProbeFill([]uint64{1, 2, 3}, 0, buf)
	if ok {
		t.Fatal("ProbeFill accepted a non-flat TLB")
	}
	if len(got) != 2 || got[0] != 11 || got[1] != 22 || tl.Len() != 0 {
		t.Fatal("refused ProbeFill mutated state")
	}
}
