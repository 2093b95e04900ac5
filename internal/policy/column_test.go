package policy

import (
	"testing"

	"addrxlat/internal/hashutil"
)

// columnTrace produces a dup-heavy page stream: consecutive repeats (the
// run-length collapse case), a hot set, and a cold tail, pre-shifted so
// AccessShifted's key derivation (v >> shift) yields long same-key runs.
func columnTrace(seed uint64, n int, keyRange uint64, shift uint) []uint64 {
	rng := hashutil.NewRNG(seed)
	vs := make([]uint64, n)
	var prev uint64
	for i := range vs {
		switch p := rng.Float64(); {
		case i > 0 && p < 0.4:
			vs[i] = prev
		case p < 0.8:
			vs[i] = rng.Uint64n(keyRange << shift / 8)
		default:
			vs[i] = rng.Uint64n(keyRange << shift)
		}
		prev = vs[i]
	}
	return vs
}

// TestRecencyStackColumnMatchesScalar pins the columnar kernel against the
// scalar path: AccessShifted over a chunk must report exactly the miss
// totals of per-element Access(v>>shift) calls, and must leave the stack in
// an equivalent state (verified by continuing both stacks scalar-for-scalar
// after each chunk). Both must count the distinct keys requested so far.
// Capacity shapes include the cap1==1 and cap2==1 boundary relinks the
// kernel special-cases.
func TestRecencyStackColumnMatchesScalar(t *testing.T) {
	shapes := []struct{ cap1, cap2 int }{
		{16, 512},
		{512, 16},
		{64, 64},
		{1, 128},
		{128, 1},
		{1, 1},
		{3, 7},
	}
	const shift = 4
	for _, shape := range shapes {
		for _, keyRange := range []uint64{4, 24, 1000, 5000} {
			col := NewRecencyStack(shape.cap1, shape.cap2, 0)
			ref := NewRecencyStack(shape.cap1, shape.cap2, 0)
			seed := uint64(shape.cap1)*2000003 + keyRange
			vs := columnTrace(seed, 30000, keyRange, shift)
			rng := hashutil.NewRNG(seed + 1)
			seen := make(map[uint64]bool)
			for lo := 0; lo < len(vs); {
				hi := min(lo+int(rng.Uint64n(900))+1, len(vs)) // uneven chunks
				chunk := vs[lo:hi]
				gotM1, gotM2 := col.AccessShifted(chunk, shift)
				var wantM1, wantM2 uint64
				for _, v := range chunk {
					seen[v>>shift] = true
					h1, h2 := ref.Access(v >> shift)
					if !h1 {
						wantM1++
					}
					if !h2 {
						wantM2++
					}
				}
				if gotM1 != wantM1 || gotM2 != wantM2 {
					t.Fatalf("caps=(%d,%d) range=%d chunk=[%d,%d): column misses (%d,%d), scalar (%d,%d)",
						shape.cap1, shape.cap2, keyRange, lo, hi, gotM1, gotM2, wantM1, wantM2)
				}
				if col.Distinct() != ref.Distinct() || col.Distinct() != len(seen) {
					t.Fatalf("caps=(%d,%d) range=%d chunk=[%d,%d): Distinct column %d, scalar %d, stream %d",
						shape.cap1, shape.cap2, keyRange, lo, hi, col.Distinct(), ref.Distinct(), len(seen))
				}
				// Interleave scalar probes on both stacks: any internal
				// divergence (order, zone boundaries) surfaces as a hit
				// mismatch here or a miss mismatch in a later chunk.
				for i := 0; i < 32; i++ {
					k := rng.Uint64n(keyRange)
					seen[k] = true
					c1, c2 := col.Access(k)
					r1, r2 := ref.Access(k)
					if c1 != r1 || c2 != r2 {
						t.Fatalf("caps=(%d,%d) range=%d after chunk [%d,%d): probe %d diverged: column=(%v,%v) scalar=(%v,%v)",
							shape.cap1, shape.cap2, keyRange, lo, hi, k, c1, c2, r1, r2)
					}
				}
				if col.Zone1Len() != ref.Zone1Len() || col.Zone2Len() != ref.Zone2Len() {
					t.Fatalf("caps=(%d,%d) range=%d: zone lens diverged (%d,%d) vs (%d,%d)",
						shape.cap1, shape.cap2, keyRange,
						col.Zone1Len(), col.Zone2Len(), ref.Zone1Len(), ref.Zone2Len())
				}
				lo = hi
			}
		}
	}
}

// TestDenseLRUTouch pins the split probe the fused kernels use: for a
// resident key, SlotOf followed by Touch must behave exactly like Access —
// same recency order, observed through subsequent victim choices.
func TestDenseLRUTouch(t *testing.T) {
	const capacity = 32
	split := NewDenseLRU(capacity, 0)
	ref := NewDenseLRU(capacity, 0)
	rng := hashutil.NewRNG(99)
	for i := 0; i < 50000; i++ {
		k := rng.Uint64n(capacity * 3)
		wantHit, wantVictim := ref.Access(k)
		if s := split.SlotOf(k); s >= 0 {
			if !wantHit {
				t.Fatalf("step %d key %d: split sees resident, reference missed", i, k)
			}
			split.Touch(s)
		} else {
			gotHit, gotVictim := split.Access(k)
			if gotHit != wantHit || gotVictim != wantVictim {
				t.Fatalf("step %d key %d: split miss path (%v,%d) != reference (%v,%d)",
					i, k, gotHit, gotVictim, wantHit, wantVictim)
			}
		}
		if split.Len() != ref.Len() {
			t.Fatalf("step %d: occupancy diverged %d vs %d", i, split.Len(), ref.Len())
		}
	}
}
