package policy

import (
	"testing"

	"addrxlat/internal/hashutil"
)

// TestRecencyStackMatchesTwoLRUs is the correctness pin for the merged
// recency stack: across capacity shapes (equal, TLB-like small/large,
// inverted, capacity 1) and key ranges (cache-friendly through thrashing),
// every access must report exactly the hits two standalone LRU caches of
// the zone capacities would report, and the occupancy counts must agree.
func TestRecencyStackMatchesTwoLRUs(t *testing.T) {
	shapes := []struct{ cap1, cap2 int }{
		{16, 512},
		{512, 16},
		{64, 64},
		{1, 128},
		{128, 1},
		{1, 1},
		{3, 7},
	}
	for _, shape := range shapes {
		for _, keyRange := range []uint64{4, 24, 1000, 5000} {
			rs := NewRecencyStack(shape.cap1, shape.cap2, 0)
			l1 := NewDenseLRU(shape.cap1, 0)
			l2 := NewDenseLRU(shape.cap2, 0)
			rng := hashutil.NewRNG(uint64(shape.cap1)*1000003 + keyRange)
			for i := 0; i < 20000; i++ {
				k := rng.Uint64n(keyRange)
				got1, got2 := rs.Access(k)
				want1, _ := l1.Access(k)
				want2, _ := l2.Access(k)
				if got1 != want1 || got2 != want2 {
					t.Fatalf("caps=(%d,%d) range=%d step=%d key=%d: stack=(%v,%v) two LRUs=(%v,%v)",
						shape.cap1, shape.cap2, keyRange, i, k, got1, got2, want1, want2)
				}
				if rs.Zone1Len() != l1.Len() || rs.Zone2Len() != l2.Len() {
					t.Fatalf("caps=(%d,%d) range=%d step=%d: zone lens (%d,%d) != LRU lens (%d,%d)",
						shape.cap1, shape.cap2, keyRange, i,
						rs.Zone1Len(), rs.Zone2Len(), l1.Len(), l2.Len())
				}
			}
		}
	}
}

// TestLRUInclusion checks, as a randomized property, the LRU inclusion
// the merged recency stack rests on: two LRU caches of capacities c < c′
// fed one stream, every access that hits the smaller also hits the larger
// (so misses never grow with capacity). Both LRU implementations are
// checked, over seeds, key ranges and random capacity pairs.
func TestLRUInclusion(t *testing.T) {
	impls := []struct {
		name string
		mk   func(capacity int) Policy
	}{
		{"DenseLRU", func(c int) Policy { return NewDenseLRU(c, 0) }},
		{"LRU", func(c int) Policy { return NewLRU(c) }},
	}
	for _, impl := range impls {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, keyRange := range []uint64{6, 100, 3000} {
				rng := hashutil.NewRNG(seed*7919 + keyRange)
				c := 1 + int(rng.Uint64n(48))
				cBig := c + 1 + int(rng.Uint64n(96))
				small, big := impl.mk(c), impl.mk(cBig)
				for i := 0; i < 10000; i++ {
					k := rng.Uint64n(keyRange)
					if rng.Uint64n(2) == 0 { // a hot eighth of the range
						k = rng.Uint64n(keyRange/8 + 1)
					}
					hitSmall, _ := small.Access(k)
					hitBig, _ := big.Access(k)
					if hitSmall && !hitBig {
						t.Fatalf("%s seed %d range %d: step %d key %d hits capacity %d but misses capacity %d",
							impl.name, seed, keyRange, i, k, c, cBig)
					}
				}
			}
		}
	}
}

// TestRecencyStackSequentialScan exercises the classic LRU worst case,
// where every access past the warm phase misses both zones.
func TestRecencyStackSequentialScan(t *testing.T) {
	rs := NewRecencyStack(8, 32, 0)
	for lap := 0; lap < 3; lap++ {
		for k := uint64(0); k < 64; k++ {
			hit1, hit2 := rs.Access(k)
			if hit1 || hit2 {
				t.Fatalf("lap %d key %d: unexpected hit (%v,%v) on a 64-key cyclic scan", lap, k, hit1, hit2)
			}
		}
	}
}

// BenchmarkRecencyStackAccess measures the merged structure against the
// cost of driving two DenseLRUs separately (the configuration HugePage
// used before the merge).
func BenchmarkRecencyStackAccess(b *testing.B) {
	rs := NewRecencyStack(16, 512, 0)
	rng := hashutil.NewRNG(1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64n(1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Access(keys[i&(1<<16-1)])
	}
}

// BenchmarkTwoDenseLRUAccess is the pre-merge baseline for comparison.
func BenchmarkTwoDenseLRUAccess(b *testing.B) {
	l1 := NewDenseLRU(16, 0)
	l2 := NewDenseLRU(512, 0)
	rng := hashutil.NewRNG(1)
	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64n(1024)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(1<<16-1)]
		l1.Access(k)
		l2.Access(k)
	}
}
