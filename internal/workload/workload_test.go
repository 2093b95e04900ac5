package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"addrxlat/internal/hashutil"
)

func TestTake(t *testing.T) {
	g, err := NewSequential(10)
	if err != nil {
		t.Fatal(err)
	}
	got := Take(g, 12)
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Take = %v, want %v", got, want)
		}
	}
}

func TestBimodalErrors(t *testing.T) {
	if _, err := NewBimodal(0, 10, 0.5, 1); err == nil {
		t.Error("hot=0 should error")
	}
	if _, err := NewBimodal(20, 10, 0.5, 1); err == nil {
		t.Error("hot>total should error")
	}
	if _, err := NewBimodal(5, 10, 1.5, 1); err == nil {
		t.Error("prob>1 should error")
	}
	if _, err := NewBimodal(5, 10, -0.1, 1); err == nil {
		t.Error("prob<0 should error")
	}
}

func TestBimodalDistribution(t *testing.T) {
	const hot = 1000
	const total = 100000
	const prob = 0.99
	g, err := NewBimodal(hot, total, prob, 42)
	if err != nil {
		t.Fatal(err)
	}
	start, length := g.HotRange()
	if length != hot || start+length > total {
		t.Fatalf("hot range [%d,%d) outside space", start, start+length)
	}
	const n = 200000
	inHot := 0
	for i := 0; i < n; i++ {
		v := g.Next()
		if v >= total {
			t.Fatalf("page %d outside space", v)
		}
		if v >= start && v < start+length {
			inHot++
		}
	}
	frac := float64(inHot) / n
	// Hot fraction ≈ prob + (1-prob)*hot/total ≈ 0.99001.
	if math.Abs(frac-prob) > 0.01 {
		t.Fatalf("hot fraction = %v, want ≈ %v", frac, prob)
	}
}

func TestBimodalDeterminism(t *testing.T) {
	a, _ := NewBimodal(100, 10000, 0.9, 7)
	b, _ := NewBimodal(100, 10000, 0.9, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestGraphWalkErrors(t *testing.T) {
	if _, err := NewGraphWalk(0, 0.01, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewGraphWalk(100, 0, 1); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, err := NewGraphWalk(100, -1, 1); err == nil {
		t.Error("alpha<0 should error")
	}
}

func TestGraphWalkProperties(t *testing.T) {
	const total = 1 << 16
	g, err := NewGraphWalk(total, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDegree() != 16 {
		t.Fatalf("OutDegree = %d, want log2(%d) = 16", g.OutDegree(), total)
	}
	counts := map[uint64]int{}
	for i := 0; i < 200000; i++ {
		v := g.Next()
		if v >= total {
			t.Fatalf("page %d outside space", v)
		}
		counts[v]++
	}
	// Pareto with α=0.01 is extremely heavy-tailed; low-index pages should
	// be visited far more often than high-index pages on average.
	lowSum, highSum := 0, 0
	for v, c := range counts {
		if v < total/10 {
			lowSum += c
		} else if v >= total*9/10 {
			highSum += c
		}
	}
	if lowSum <= highSum {
		t.Fatalf("low-index visits %d not above high-index %d — Pareto skew missing", lowSum, highSum)
	}
}

func TestGraphWalkEdgeConsistency(t *testing.T) {
	// The lazily-materialized graph must be consistent: the same (node,
	// edge) pair always leads to the same destination.
	g, _ := NewGraphWalk(1<<12, 0.01, 9)
	d1 := g.destination(42, 3)
	d2 := g.destination(42, 3)
	if d1 != d2 {
		t.Fatal("edge destinations not deterministic")
	}
	if d1 >= 1<<12 {
		t.Fatalf("destination %d outside space", d1)
	}
}

func TestUniform(t *testing.T) {
	if _, err := NewUniform(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	g, _ := NewUniform(1000, 5)
	buckets := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := g.Next()
		if v >= 1000 {
			t.Fatalf("page %d outside space", v)
		}
		buckets[v/100]++
	}
	for i, c := range buckets {
		if math.Abs(float64(c)-n/10) > n/10*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from uniform", i, c)
		}
	}
}

func TestSequentialAndStrided(t *testing.T) {
	if _, err := NewSequential(0); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewStrided(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewStrided(10, 0); err == nil {
		t.Error("stride=0 should error")
	}
	s, _ := NewStrided(100, 7)
	prev := s.Next()
	for i := 0; i < 50; i++ {
		v := s.Next()
		if v != (prev+7)%100 {
			t.Fatalf("stride broken: %d after %d", v, prev)
		}
		prev = v
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1.1, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewZipf(10, 0, 1); err == nil {
		t.Error("s=0 should error")
	}
}

func TestZipfDistribution(t *testing.T) {
	const n = 1000
	g, err := NewZipf(n, 1.2, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	const samples = 500000
	for i := 0; i < samples; i++ {
		v := g.Next()
		if v >= n {
			t.Fatalf("value %d outside range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate; counts must be roughly decreasing in rank.
	if counts[0] < counts[10] {
		t.Fatalf("rank 0 count %d below rank 10 count %d", counts[0], counts[10])
	}
	// Check the s exponent roughly: count(1)/count(10) ≈ 10^1.2 / ... use
	// ratio count[0]/count[9] ≈ (10/1)^1.2 ≈ 15.8; allow wide tolerance.
	ratio := float64(counts[0]) / math.Max(1, float64(counts[9]))
	if ratio < 5 || ratio > 50 {
		t.Fatalf("zipf head ratio = %v, want ≈ 15.8", ratio)
	}
	// Sanity: most mass in the head.
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	head := 0
	for _, c := range sorted[:100] {
		head += c
	}
	if float64(head)/samples < 0.5 {
		t.Fatalf("top-100 mass = %v, want > 0.5 for s=1.2", float64(head)/samples)
	}
}

func TestZipfSEqualOne(t *testing.T) {
	g, err := NewZipf(100, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if v := g.Next(); v >= 100 {
			t.Fatalf("value %d outside range", v)
		}
	}
}

// TestNonFiniteParamsRejected: a NaN or infinite shape parameter must
// fail construction with an error naming the parameter. NaN compares
// false against every bound, so a range check alone lets it through, and
// the generator then hangs (Zipf's rejection loop never accepts) or
// collapses (GraphWalk walks two pages, Bimodal draws ~1% hot).
func TestNonFiniteParamsRejected(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, c := range []struct {
			gen, param string
			build      func() error
		}{
			{"bimodal", "hotProb", func() error { _, err := NewBimodal(10, 100, x, 1); return err }},
			{"graphwalk", "α", func() error { _, err := NewGraphWalk(100, x, 1); return err }},
			{"zipf", "exponent s", func() error { _, err := NewZipf(100, x, 1); return err }},
		} {
			t.Run(fmt.Sprintf("%s/%v", c.gen, x), func(t *testing.T) {
				err := c.build()
				if err == nil {
					t.Fatalf("%s = %v accepted", c.param, x)
				}
				if !strings.Contains(err.Error(), c.param) {
					t.Fatalf("error %q does not name %s", err, c.param)
				}
			})
		}
	}
}

// refGraphWalk is GraphWalk's reference: the same walk with the Pareto
// draw written out in full, F(N+1) = 1 − (N+1)^−α and the exponent −1/α
// evaluated on every draw.
type refGraphWalk struct {
	totalPages uint64
	outDegree  int
	alpha      float64
	rng        *hashutil.RNG
	edgeSeed   uint64
	current    uint64
}

func newRefGraphWalk(totalPages uint64, alpha float64, seed uint64) *refGraphWalk {
	rng := hashutil.NewRNG(seed)
	return &refGraphWalk{
		totalPages: totalPages,
		outDegree:  int(math.Max(1, math.Log2(float64(totalPages)))),
		alpha:      alpha,
		rng:        rng,
		edgeSeed:   hashutil.Mix64(seed ^ 0xedce5eed),
		current:    rng.Uint64n(totalPages),
	}
}

func (g *refGraphWalk) Next() uint64 {
	v := g.current
	j := g.rng.Intn(g.outDegree)
	h := hashutil.Hash64(g.edgeSeed+uint64(j), v)
	u := float64(h>>11) / (1 << 53)
	n := float64(g.totalPages)
	fMax := 1 - math.Pow(n+1, -g.alpha)
	x := math.Pow(1-u*fMax, -1/g.alpha)
	i := uint64(x) - 1
	if i >= g.totalPages {
		i = g.totalPages - 1
	}
	g.current = i
	return v
}

// refZipf is Zipf's reference: the same rejection-inversion sampler with
// the quick-accept bound 1 − H⁻¹(H(1.5) − h(1)) evaluated on every pass
// of the rejection loop.
type refZipf struct {
	n           uint64
	s           float64
	rng         *hashutil.RNG
	hIntegralX1 float64
	hIntegralN  float64
}

func newRefZipf(n uint64, s float64, seed uint64) *refZipf {
	if s == 1 {
		s = 1.0000001
	}
	z := &refZipf{n: n, s: s, rng: hashutil.NewRNG(seed)}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	return z
}

func (z *refZipf) hIntegral(x float64) float64 { return math.Pow(x, 1-z.s) / (1 - z.s) }

func (z *refZipf) hIntegralInverse(x float64) float64 {
	return math.Pow(x*(1-z.s), 1/(1-z.s))
}

func (z *refZipf) h(x float64) float64 { return math.Pow(x, -z.s) }

func (z *refZipf) Next() uint64 {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= 1-z.hIntegralInverse(z.hIntegral(1.5)-z.h(1)) ||
			u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// streamLen is the length of each compared stream: a prime, so no chunk
// size divides it.
const streamLen = 10_007

// requireSameStream draws streamLen pages from gen, in turn by Fill
// chunks of 333 and 1000 and single Next calls, and requires each to
// equal ref's next draw.
func requireSameStream(t *testing.T, gen Generator, ref interface{ Next() uint64 }) {
	t.Helper()
	buf := make([]uint64, 1000)
	sizes := []int{333, 1, 1000, 1}
	for drawn, k := 0, 0; drawn < streamLen; k++ {
		size := min(sizes[k%len(sizes)], streamLen-drawn)
		if size == 1 {
			buf[0] = gen.Next()
		} else {
			Fill(gen, buf[:size])
		}
		for i, got := range buf[:size] {
			if want := ref.Next(); got != want {
				t.Fatalf("draw %d = %d, reference %d", drawn+i, got, want)
			}
		}
		drawn += size
	}
}

// referenceSizes spans a one-page space, a small one, Figure 1b's
// default-scale space and a large odd one.
var referenceSizes = []uint64{1, 100, 1 << 18, 1<<24 - 3}

func TestGraphWalkMatchesReference(t *testing.T) {
	for _, n := range referenceSizes {
		for _, alpha := range []float64{0.01, 1, 2.5} {
			for _, seed := range []uint64{1, 42} {
				t.Run(fmt.Sprintf("N=%d/alpha=%v/seed=%d", n, alpha, seed), func(t *testing.T) {
					g, err := NewGraphWalk(n, alpha, seed)
					if err != nil {
						t.Fatal(err)
					}
					requireSameStream(t, g, newRefGraphWalk(n, alpha, seed))
				})
			}
		}
	}
}

func TestZipfMatchesReference(t *testing.T) {
	for _, n := range referenceSizes {
		for _, s := range []float64{0.5, 1.1, 2} {
			for _, seed := range []uint64{1, 42} {
				t.Run(fmt.Sprintf("N=%d/s=%v/seed=%d", n, s, seed), func(t *testing.T) {
					z, err := NewZipf(n, s, seed)
					if err != nil {
						t.Fatal(err)
					}
					requireSameStream(t, z, newRefZipf(n, s, seed))
				})
			}
		}
	}
}

func TestNames(t *testing.T) {
	bm, _ := NewBimodal(10, 100, 0.9, 1)
	gw, _ := NewGraphWalk(100, 0.01, 1)
	un, _ := NewUniform(100, 1)
	se, _ := NewSequential(100)
	st, _ := NewStrided(100, 2)
	zf, _ := NewZipf(100, 1.1, 1)
	for _, g := range []Generator{bm, gw, un, se, st, zf} {
		if g.Name() == "" {
			t.Errorf("%T has empty name", g)
		}
	}
}

func BenchmarkBimodal(b *testing.B) {
	g, _ := NewBimodal(1<<18, 1<<24, 0.9999, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkGraphWalk(b *testing.B) {
	g, _ := NewGraphWalk(1<<24, 0.01, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkZipf(b *testing.B) {
	g, _ := NewZipf(1<<24, 1.1, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
