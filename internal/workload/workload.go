// Package workload generates the virtual-page request sequences of the
// paper's Section 6 experiments, plus standard synthetic patterns used by
// additional experiments and tests.
//
// A Generator produces an infinite stream of virtual page addresses; the
// harness draws warmup and measurement prefixes from it. All generators
// are deterministic given their seed.
package workload

import (
	"fmt"
	"math"

	"addrxlat/internal/hashutil"
)

// Generator yields virtual page addresses one at a time.
type Generator interface {
	// Next returns the next virtual page address in the sequence.
	Next() uint64
	// Name identifies the workload.
	Name() string
}

// Batcher is implemented by generators that can fill a whole slice per
// call (e.g. Replay, which copies straight out of its recording instead of
// paying a virtual call per request).
type Batcher interface {
	// NextBatch fills dst with the next len(dst) requests, exactly as
	// repeated Next calls would.
	NextBatch(dst []uint64)
}

// Fill fills dst with the next len(dst) requests from g, through the
// generator's batch path when it has one. It is the single fill-dispatch
// point shared by the streaming producer (Ring) and the materializing
// harnesses (Take).
func Fill(g Generator, dst []uint64) {
	if b, ok := g.(Batcher); ok {
		b.NextBatch(dst)
		return
	}
	for i := range dst {
		dst[i] = g.Next()
	}
}

// Take materializes the next n requests from g.
func Take(g Generator, n int) []uint64 {
	out := make([]uint64, n)
	Fill(g, out)
	return out
}

// Bimodal is the Figure 1a workload: with probability hotProb the access
// is uniform within a hot region of hotPages pages placed at a random
// offset inside the virtual address space; otherwise it is uniform over
// the whole space of totalPages pages. The paper uses a 1 GiB hot region
// in a 64 GiB space with hotProb = 0.9999.
type Bimodal struct {
	hotStart   uint64
	hotPages   uint64
	totalPages uint64
	hotProb    float64
	rng        *hashutil.RNG
}

var _ Generator = (*Bimodal)(nil)

// NewBimodal creates the bimodal generator. hotPages must not exceed
// totalPages; hotProb must be in [0,1].
func NewBimodal(hotPages, totalPages uint64, hotProb float64, seed uint64) (*Bimodal, error) {
	if hotPages == 0 || totalPages == 0 || hotPages > totalPages {
		return nil, fmt.Errorf("workload: invalid bimodal sizes hot=%d total=%d", hotPages, totalPages)
	}
	// Test for inclusion: NaN fails every comparison.
	if !(hotProb >= 0 && hotProb <= 1) {
		return nil, fmt.Errorf("workload: hotProb %v outside [0,1]", hotProb)
	}
	rng := hashutil.NewRNG(seed)
	// "The hot page is selected at random from a 1 GB region of memory":
	// place the hot region at a random aligned offset.
	maxStart := totalPages - hotPages
	var hotStart uint64
	if maxStart > 0 {
		hotStart = rng.Uint64n(maxStart)
	}
	return &Bimodal{
		hotStart:   hotStart,
		hotPages:   hotPages,
		totalPages: totalPages,
		hotProb:    hotProb,
		rng:        rng,
	}, nil
}

// Next implements Generator.
func (b *Bimodal) Next() uint64 {
	if b.rng.Float64() < b.hotProb {
		return b.hotStart + b.rng.Uint64n(b.hotPages)
	}
	return b.rng.Uint64n(b.totalPages)
}

// NextBatch implements Batcher: the same draws as repeated Next calls —
// identical RNG sequence, so the stream is byte-identical — but looped
// over the concrete receiver, so chunked fills (workload.Fill, Ring)
// pay one interface call per chunk instead of one per request.
func (b *Bimodal) NextBatch(dst []uint64) {
	for i := range dst {
		if b.rng.Float64() < b.hotProb {
			dst[i] = b.hotStart + b.rng.Uint64n(b.hotPages)
		} else {
			dst[i] = b.rng.Uint64n(b.totalPages)
		}
	}
}

// Name implements Generator.
func (b *Bimodal) Name() string { return "bimodal" }

// HotRange reports the hot region [start, start+len) for tests.
func (b *Bimodal) HotRange() (start, length uint64) { return b.hotStart, b.hotPages }

// GraphWalk is the Figure 1b workload: a random walk on a graph whose
// nodes are the pages of the virtual address space. Each node has a
// logarithmic number of outgoing edges; each edge's destination is drawn
// from a Pareto distribution over all pages with shape parameter α
// (the paper uses α = 0.01: Pr[dest = i] ∝ i^(−α−1)).
//
// Edges are materialized lazily and deterministically from the node id, so
// the graph is consistent across revisits without storing 64 GiB of
// adjacency: edge j of node v has destination pareto(Hash(v,j)).
type GraphWalk struct {
	totalPages  uint64
	outDegree   int
	fMax        float64 // 1 − (N+1)^−α, the CDF's mass on the page range
	negInvAlpha float64 // −1/α, the inverse CDF's exponent
	rng         *hashutil.RNG
	edgeSeed    uint64
	current     uint64
}

var _ Generator = (*GraphWalk)(nil)

// NewGraphWalk creates the Pareto graph-walk generator over totalPages
// pages with the given finite Pareto shape α > 0.
func NewGraphWalk(totalPages uint64, alpha float64, seed uint64) (*GraphWalk, error) {
	if totalPages == 0 {
		return nil, fmt.Errorf("workload: totalPages must be positive")
	}
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return nil, fmt.Errorf("workload: Pareto α must be positive and finite, got %v", alpha)
	}
	outDegree := int(math.Max(1, math.Log2(float64(totalPages))))
	rng := hashutil.NewRNG(seed)
	// Truncated Pareto with x_m = 1 over [1, N+1): CDF F(x) = 1 − x^{−α};
	// pareto normalizes by F(N+1).
	return &GraphWalk{
		totalPages:  totalPages,
		outDegree:   outDegree,
		fMax:        1 - math.Pow(float64(totalPages)+1, -alpha),
		negInvAlpha: -1 / alpha,
		rng:         rng,
		edgeSeed:    hashutil.Mix64(seed ^ 0xedce5eed),
		current:     rng.Uint64n(totalPages),
	}, nil
}

// pareto draws a page index with Pr[i] ∝ (i+1)^(−α−1) using inverse
// transform sampling of the continuous Pareto CDF truncated to the page
// range: i = ⌊(1−u·F)^{−1/α}⌋ − 1 for u ∈ [0,1), with F = F(N+1).
func (g *GraphWalk) pareto(u float64) uint64 {
	x := math.Pow(1-u*g.fMax, g.negInvAlpha)
	i := uint64(x) - 1
	if i >= g.totalPages {
		i = g.totalPages - 1
	}
	return i
}

// destination returns edge j of node v, deterministic in (v, j).
func (g *GraphWalk) destination(v uint64, j int) uint64 {
	h := hashutil.Hash64(g.edgeSeed+uint64(j), v)
	u := float64(h>>11) / (1 << 53)
	return g.pareto(u)
}

// Next implements Generator: emit the current node's page, then follow a
// uniformly random outgoing edge.
func (g *GraphWalk) Next() uint64 {
	v := g.current
	j := g.rng.Intn(g.outDegree)
	g.current = g.destination(v, j)
	return v
}

// Name implements Generator.
func (g *GraphWalk) Name() string { return "graphwalk" }

// OutDegree reports the per-node edge count (≈ log₂ N).
func (g *GraphWalk) OutDegree() int { return g.outDegree }

// Interleave merges several tenants' request streams into one, modeling
// threads or VMs sharing a TLB (the paper's introduction: shared TLBs
// shrink the effective per-thread capacity). Each step picks a tenant
// uniformly at random and emits its next page, tagged with the tenant id
// in the high address bits so tenants never alias.
type Interleave struct {
	tenants   []Generator
	spaceBits uint
	rng       *hashutil.RNG
}

var _ Generator = (*Interleave)(nil)

// NewInterleave merges the given tenant generators. spaceBits is the
// per-tenant address-space width in bits: every tenant's pages must fit
// in [0, 2^spaceBits), and tenant i's pages are offset by i·2^spaceBits.
func NewInterleave(tenants []Generator, spaceBits uint, seed uint64) (*Interleave, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("workload: at least one tenant required")
	}
	if spaceBits == 0 || spaceBits > 56 {
		return nil, fmt.Errorf("workload: spaceBits %d outside [1,56]", spaceBits)
	}
	return &Interleave{
		tenants:   tenants,
		spaceBits: spaceBits,
		rng:       hashutil.NewRNG(seed),
	}, nil
}

// Next implements Generator.
func (il *Interleave) Next() uint64 {
	i := il.rng.Intn(len(il.tenants))
	v := il.tenants[i].Next()
	if v>>il.spaceBits != 0 {
		panic(fmt.Sprintf("workload: tenant %d emitted page %d outside its 2^%d space",
			i, v, il.spaceBits))
	}
	return uint64(i)<<il.spaceBits | v
}

// Name implements Generator.
func (il *Interleave) Name() string {
	return fmt.Sprintf("interleave(%d tenants)", len(il.tenants))
}

// Tenants returns the tenant count.
func (il *Interleave) Tenants() int { return len(il.tenants) }

// TenantOf recovers which tenant a merged page belongs to.
func (il *Interleave) TenantOf(page uint64) int { return int(page >> il.spaceBits) }

// Uniform emits uniformly random pages over [0, totalPages).
type Uniform struct {
	totalPages uint64
	rng        *hashutil.RNG
}

var _ Generator = (*Uniform)(nil)

// NewUniform creates a uniform generator.
func NewUniform(totalPages uint64, seed uint64) (*Uniform, error) {
	if totalPages == 0 {
		return nil, fmt.Errorf("workload: totalPages must be positive")
	}
	return &Uniform{totalPages: totalPages, rng: hashutil.NewRNG(seed)}, nil
}

// Next implements Generator.
func (u *Uniform) Next() uint64 { return u.rng.Uint64n(u.totalPages) }

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// Sequential scans pages 0,1,2,… cyclically — the classic LRU-worst-case
// pattern when the region exceeds the cache.
type Sequential struct {
	totalPages uint64
	next       uint64
}

var _ Generator = (*Sequential)(nil)

// NewSequential creates a cyclic sequential scanner.
func NewSequential(totalPages uint64) (*Sequential, error) {
	if totalPages == 0 {
		return nil, fmt.Errorf("workload: totalPages must be positive")
	}
	return &Sequential{totalPages: totalPages}, nil
}

// Next implements Generator.
func (s *Sequential) Next() uint64 {
	v := s.next
	s.next = (s.next + 1) % s.totalPages
	return v
}

// Name implements Generator.
func (s *Sequential) Name() string { return "sequential" }

// Strided scans with a fixed stride, wrapping at totalPages. Strides equal
// to a huge-page size are the adversarial pattern for TLB coverage.
type Strided struct {
	totalPages uint64
	stride     uint64
	next       uint64
}

var _ Generator = (*Strided)(nil)

// NewStrided creates a strided scanner.
func NewStrided(totalPages, stride uint64) (*Strided, error) {
	if totalPages == 0 || stride == 0 {
		return nil, fmt.Errorf("workload: totalPages and stride must be positive")
	}
	return &Strided{totalPages: totalPages, stride: stride}, nil
}

// Next implements Generator.
func (s *Strided) Next() uint64 {
	v := s.next
	s.next = (s.next + s.stride) % s.totalPages
	return v
}

// Name implements Generator.
func (s *Strided) Name() string { return "strided" }

// Zipf emits pages with the Zipf distribution: Pr[i] ∝ 1/(i+1)^s over
// [0, totalPages), using the rejection-inversion sampler of Hörmann and
// Derflinger, which needs O(1) time and no precomputed tables.
type Zipf struct {
	n           uint64
	s           float64
	rng         *hashutil.RNG
	hIntegralX1 float64
	hIntegralN  float64
	// accept is 1 − H⁻¹(H(1.5) − h(1)): a draw x that rounds to k with
	// k − x ≤ accept is taken without the density test.
	accept float64
}

var _ Generator = (*Zipf)(nil)

// NewZipf creates a Zipf generator with finite exponent s > 0, s != 1
// handled exactly and s == 1 via a tiny offset.
func NewZipf(totalPages uint64, s float64, seed uint64) (*Zipf, error) {
	if totalPages == 0 {
		return nil, fmt.Errorf("workload: totalPages must be positive")
	}
	if !(s > 0) || math.IsInf(s, 1) {
		return nil, fmt.Errorf("workload: Zipf exponent s must be positive and finite, got %v", s)
	}
	if s == 1 {
		s = 1.0000001 // avoid the log special case; indistinguishable
	}
	z := &Zipf{n: totalPages, s: s, rng: hashutil.NewRNG(seed)}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(totalPages) + 0.5)
	z.accept = 1 - z.hIntegralInverse(z.hIntegral(1.5)-z.h(1))
	return z, nil
}

// hIntegral is ∫ x^(−s) dx = x^(1−s)/(1−s).
func (z *Zipf) hIntegral(x float64) float64 {
	return math.Pow(x, 1-z.s) / (1 - z.s)
}

// hIntegralInverse inverts hIntegral.
func (z *Zipf) hIntegralInverse(x float64) float64 {
	return math.Pow(x*(1-z.s), 1/(1-z.s))
}

// h is the density x^(−s).
func (z *Zipf) h(x float64) float64 { return math.Pow(x, -z.s) }

// Next implements Generator (rejection-inversion sampling).
func (z *Zipf) Next() uint64 {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.accept ||
			u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// Name implements Generator.
func (z *Zipf) Name() string { return "zipf" }
