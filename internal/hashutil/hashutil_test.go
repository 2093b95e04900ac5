package hashutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// A bijection never maps two inputs to one output. We can't test all
	// 2^64 inputs, but distinct adjacent and random inputs must differ.
	seen := make(map[uint64]uint64)
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		x := r.Uint64()
		y := Mix64(x)
		if prev, ok := seen[y]; ok && prev != x {
			t.Fatalf("Mix64 collision: Mix64(%#x) == Mix64(%#x) == %#x", x, prev, y)
		}
		seen[y] = x
	}
}

func TestMix64ZeroNotFixed(t *testing.T) {
	if Mix64(0) == 0 {
		t.Fatal("Mix64(0) should not be 0 for good diffusion")
	}
}

func TestHash64Deterministic(t *testing.T) {
	f := func(seed, key uint64) bool {
		return Hash64(seed, key) == Hash64(seed, key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHash64SeedSensitivity(t *testing.T) {
	// Different seeds must give different functions. Check that adjacent
	// seeds disagree on most keys.
	agree := 0
	const trials = 10000
	for i := uint64(0); i < trials; i++ {
		if Hash64(1, i) == Hash64(2, i) {
			agree++
		}
	}
	if agree > 2 {
		t.Fatalf("seeds 1 and 2 agree on %d/%d keys; functions not independent", agree, trials)
	}
}

func TestRangeBounds(t *testing.T) {
	f := func(h, n uint64) bool {
		if n == 0 {
			n = 1
		}
		return Range(h, n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRangeUniformity(t *testing.T) {
	// Chi-squared style check: hash 0..N-1 into 16 buckets; each bucket
	// should get close to N/16.
	const buckets = 16
	const n = 1 << 16
	var counts [buckets]int
	for i := uint64(0); i < n; i++ {
		counts[Range(Hash64(42, i), buckets)]++
	}
	expected := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.1 {
			t.Errorf("bucket %d: got %d, want within 10%% of %.0f", b, c, expected)
		}
	}
}

func TestFamilyIndependence(t *testing.T) {
	fam := NewFamily(7, 3, 1000)
	// The k functions should disagree pairwise on most keys.
	for a := 0; a < fam.K(); a++ {
		for b := a + 1; b < fam.K(); b++ {
			agree := 0
			const trials = 10000
			for key := uint64(0); key < trials; key++ {
				if fam.At(a, key) == fam.At(b, key) {
					agree++
				}
			}
			// Expected agreement for range 1000 is trials/1000 = 10.
			if agree > 40 {
				t.Errorf("functions %d and %d agree on %d/%d keys", a, b, agree, trials)
			}
		}
	}
}

func TestFamilyAll(t *testing.T) {
	fam := NewFamily(3, 4, 50)
	got := fam.All(nil, 12345)
	if len(got) != 4 {
		t.Fatalf("All returned %d values, want 4", len(got))
	}
	for i, v := range got {
		if v != fam.At(i, 12345) {
			t.Errorf("All[%d] = %d, At(%d) = %d", i, v, i, fam.At(i, 12345))
		}
		if v >= 50 {
			t.Errorf("All[%d] = %d out of range [0,50)", i, v)
		}
	}
	// Appending into an existing slice must preserve the prefix.
	pre := []uint64{99}
	got = fam.All(pre, 1)
	if got[0] != 99 || len(got) != 5 {
		t.Errorf("All with prefix: got %v", got)
	}
}

func TestFamilyPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"k=0", func() { NewFamily(1, 0, 10) }},
		{"n=0", func() { NewFamily(1, 1, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGUint64nBounds(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40} {
		for i := 0; i < 1000; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d", n, v)
			}
		}
	}
}

func TestRNGFloat64Bounds(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean of Float64 = %v, want ~0.5", mean)
	}
}

// TestRNGSkip pins Skip(k) to k draws: the next Uint64 after Skip(k) is
// the (k+1)-th draw of a fresh RNG. k = 2^40 is checked as 2^20 skips of
// 2^20, each of which is checked against 2^20 real draws.
func TestRNGSkip(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		for _, k := range []uint64{0, 1, 17, 1 << 20} {
			skipped, drawn := NewRNG(seed), NewRNG(seed)
			skipped.Skip(k)
			for range k {
				drawn.Uint64()
			}
			if got, want := skipped.Uint64(), drawn.Uint64(); got != want {
				t.Fatalf("seed %d: draw after Skip(%d) = %#x, draw %d = %#x", seed, k, got, k+1, want)
			}
		}
		skipped, stepped := NewRNG(seed), NewRNG(seed)
		skipped.Skip(1 << 40)
		for range 1 << 20 {
			stepped.Skip(1 << 20)
		}
		if got, want := skipped.Uint64(), stepped.Uint64(); got != want {
			t.Fatalf("seed %d: draw after Skip(2^40) = %#x, after 2^20 × Skip(2^20) %#x", seed, got, want)
		}
	}
}

// TestRNGNext: drawing by value with Next yields Uint64's stream and
// leaves the generator where Uint64 leaves it, at seeds 0, 1 and 42.
func TestRNGNext(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		byValue, byPointer := *NewRNG(seed), NewRNG(seed)
		for i := range 1000 {
			var got uint64
			got, byValue = byValue.Next()
			if want := byPointer.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Next %#x, Uint64 %#x", seed, i, got, want)
			}
		}
		if byValue != *byPointer {
			t.Fatalf("seed %d: Next left the generator at %+v, Uint64 at %+v", seed, byValue, *byPointer)
		}
	}
}

// TestFloat64Below pins the integer threshold to Float64's test: for
// each p, j < Float64Below(p) exactly when j/2^53 < p, at the 53-bit
// values j next to the threshold and on random draws.
func TestFloat64Below(t *testing.T) {
	r := NewRNG(3)
	ps := []float64{0, 1, 0.5, 0.9, 0.9999, 0x1p-53, 1 - 0x1p-53, 0x1p-60, math.SmallestNonzeroFloat64}
	for range 100 {
		ps = append(ps, r.Float64(), float64(r.Uint64()>>11)/(1<<53))
	}
	for _, p := range ps {
		k := Float64Below(p)
		for j := max(k, 2) - 2; j <= k+2 && j < 1<<53; j++ {
			if below, want := j < k, float64(j)/(1<<53) < p; below != want {
				t.Fatalf("p = %v: %d < Float64Below = %d is %v, %d/2^53 < p is %v", p, j, k, below, j, want)
			}
		}
		a, b := NewRNG(11), NewRNG(11)
		for range 1000 {
			if got, want := a.Uint64()>>11 < k, b.Float64() < p; got != want {
				t.Fatalf("p = %v: integer test %v, Float64() < p %v", p, got, want)
			}
		}
	}
}

func BenchmarkHash64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Hash64(42, uint64(i))
	}
	_ = sink
}

func BenchmarkFamilyAt3(b *testing.B) {
	fam := NewFamily(42, 3, 1<<20)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += fam.At(i%3, uint64(i))
	}
	_ = sink
}
