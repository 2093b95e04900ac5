package policy

import (
	"slices"
	"testing"

	"addrxlat/internal/dense"
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

// columnTwin drives DenseLRU's column kernel and a twin making one
// AccessSlot(v>>shift) call per request over the same stream, cut into
// chunks of the given lengths (empty ones included) and then one chunk
// for the rest. After every chunk both must agree on the misses (request
// index and victim, appended after a prefix the kernel must keep), Len
// and Keys, and the key index must count exactly the cached keys — the
// count the kernel's direct writes to the table's flat region must keep.
func columnTwin(t *testing.T, capacity int, shift uint, vs []uint64, cuts []int) {
	t.Helper()
	col := NewDenseLRU(capacity, 0)
	ref := NewDenseLRU(capacity, 0)
	prefix := []ColumnMiss{{At: -1, Victim: 7}}
	var got []ColumnMiss
	lo := 0
	for c := 0; c <= len(cuts); c++ {
		hi := len(vs)
		if c < len(cuts) {
			hi = min(lo+cuts[c], len(vs))
		}
		chunk := vs[lo:hi]
		got = col.AccessColumn(chunk, shift, append(got[:0], prefix...))
		want := slices.Clone(prefix)
		for i, v := range chunk {
			if _, hit, victim := ref.AccessSlot(v >> shift); !hit {
				want = append(want, ColumnMiss{At: i, Victim: victim})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cap %d shift %d chunk [%d,%d): column misses %v, scalar %v", capacity, shift, lo, hi, got, want)
		}
		if col.Len() != ref.Len() || col.slot.Len() != col.Len() {
			t.Fatalf("cap %d shift %d chunk [%d,%d): Len column %d (index %d), scalar %d",
				capacity, shift, lo, hi, col.Len(), col.slot.Len(), ref.Len())
		}
		if ck, rk := col.Keys(), ref.Keys(); !slices.Equal(ck, rk) {
			t.Fatalf("cap %d shift %d chunk [%d,%d): Keys column %v, scalar %v", capacity, shift, lo, hi, ck, rk)
		}
		lo = hi
	}
}

// TestDenseLRUColumnMatchesScalar pins AccessColumn against per-element
// AccessSlot over dup-heavy streams in uneven chunks, at capacity 1 (every
// miss evicts the MRU), small and large capacities, shifts 0 and 4, with
// every 97th request a key at or above dense.SparseBound (the key index's
// map path).
func TestDenseLRUColumnMatchesScalar(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64, 512} {
		for _, shift := range []uint{0, 4} {
			seed := uint64(capacity)*31 + uint64(shift)
			vs := columnTrace(seed, 20000, 1000, shift)
			for i := 96; i < len(vs); i += 97 {
				vs[i] = (dense.SparseBound + vs[i]>>shift%8) << shift
			}
			rng := hashutil.NewRNG(seed + 1)
			cuts := make([]int, 60)
			for i := range cuts {
				cuts[i] = int(rng.Uint64n(700))
			}
			columnTwin(t, capacity, shift, vs, cuts)
		}
	}
}

// FuzzDenseLRUColumn fuzzes the column kernel against its AccessSlot
// twin (columnTwin) over streams and chunkings. Each stream byte is one
// request: below 0xc0 one of 24 hot keys (hits, repeats, evictions), up
// to 0xe0 a key up to 31<<10 that grows the key index mid-chunk, above
// that a key at or above dense.SparseBound. The low shift bits vary from
// request to request, so runs of one key are not runs of one request.
// Each chunking byte is one chunk's length, 0 to 16.
func FuzzDenseLRUColumn(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{1, 1, 2, 1, 3, 3, 3, 0xc1, 0xe2, 1, 0xe2, 0xe2, 0xc1, 2}, []byte{3, 0, 5})
	f.Add(uint8(3), uint8(4), []byte{5, 5, 6, 7, 8, 0xdf, 5, 9, 0xe0, 0xff, 6, 6, 0xc4, 10, 11, 5}, []byte{1, 2, 16, 0, 4})
	f.Add(uint8(7), uint8(7), []byte{0, 0xc0, 0xc0, 0xe5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xe5, 0}, []byte{})
	f.Fuzz(func(t *testing.T, capacity, shift uint8, stream, chunking []byte) {
		sh := uint(shift % 8)
		vs := make([]uint64, len(stream))
		for i, b := range stream {
			var key uint64
			switch {
			case b < 0xc0:
				key = uint64(b % 24)
			case b < 0xe0:
				key = uint64(b&0x1f) << 10
			default:
				key = dense.SparseBound + uint64(b&0x1f)
			}
			vs[i] = key<<sh | uint64(i)&(1<<sh-1)
		}
		cuts := make([]int, len(chunking))
		for i, b := range chunking {
			cuts[i] = int(b % 17)
		}
		columnTwin(t, int(capacity%8)+1, sh, vs, cuts)
	})
}
