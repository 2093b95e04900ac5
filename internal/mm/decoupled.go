package mm

import (
	"fmt"
	"math/bits"

	"addrxlat/internal/ballsbins"
	"addrxlat/internal/core"
	"addrxlat/internal/explain"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
)

// DecoupledConfig configures Theorem 4's algorithm Z.
type DecoupledConfig struct {
	// Alloc selects the RAM-allocation scheme (core.IcebergAlloc for the
	// headline Theorem 3 construction; core.SingleChoice for Theorem 1).
	Alloc core.AllocKind
	// RAMPages P and VirtualPages V size the machine in base pages.
	RAMPages     uint64
	VirtualPages uint64
	// TLBEntries ℓ and ValueBits w define the TLB hardware.
	TLBEntries int
	ValueBits  int
	// TLBPolicy is X's replacement policy (over size-hmax huge pages);
	// RAMPolicy is Y's replacement policy (over base pages, capacity
	// m = (1−δ)P). The paper's experiments use LRU for both.
	TLBPolicy policy.Kind
	RAMPolicy policy.Kind
	// Seed feeds the scheme's hash functions and randomized policies.
	Seed uint64
}

func (c *DecoupledConfig) validate() error {
	if c.Alloc == "" {
		c.Alloc = core.IcebergAlloc
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("mm: TLB entries must be positive, got %d", c.TLBEntries)
	}
	if c.ValueBits <= 0 {
		c.ValueBits = 64
	}
	if c.TLBPolicy == "" {
		c.TLBPolicy = policy.LRUKind
	}
	if c.RAMPolicy == "" {
		c.RAMPolicy = policy.LRUKind
	}
	return nil
}

// Decoupled is the paper's algorithm Z (Theorem 4): a huge-page decoupling
// scheme D combined with a TLB-replacement policy X over virtual huge
// pages of size hmax and a RAM-replacement policy Y over base pages with
// capacity (1−δ)P.
//
// On each request v:
//
//   - TLB side: huge page u = r(v) is looked up; a miss costs ε and
//     inserts u (evicting per X). The TLB holds keys only: the entry's
//     value ψ(u) is read live from the scheme's encoder, which the model
//     allows because ψ updates while u is TLB-resident are free.
//   - RAM side: if v is not in Y's active set, one IO (cost 1) brings it
//     in; Y's eviction is pushed through D (PageOut) so φ stays in sync.
//     D assigns v a bucket slot; on a paging failure v enters F.
//   - Failure handling: a request to a page in F is serviced with one
//     temporary IO plus one decoding miss (cost 1+ε), exactly the
//     Theorem 4 recipe; the page remains failed until Y evicts it.
type Decoupled struct {
	cfg    DecoupledConfig
	params core.Params
	scheme *core.Scheme
	tlb    *tlb.TLB      // X: fully associative, over huge pages of size hmax
	ramY   policy.Policy // Y: base-page cache of capacity m

	costs       Costs
	ex          *explain.Counters
	failureHits uint64 // requests serviced while the page was in F

	// Staged-path specializations, resolved once at construction: the
	// huge-page shift (HMax is a power of two) and the concrete flat-LRU
	// Y cache. A nil ramFlat or a non-flat TLB routes AccessBatch to the
	// scalar loop. miss is the TLB probe's packed miss list, grown to the
	// high-water chunk size once and reused by every later chunk.
	hshift  uint
	ramFlat *policy.DenseLRU
	miss    []uint64
}

var _ Algorithm = (*Decoupled)(nil)

// NewDecoupled builds algorithm Z from the configuration.
func NewDecoupled(cfg DecoupledConfig) (*Decoupled, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	params, err := core.DeriveParams(cfg.Alloc, cfg.RAMPages, cfg.VirtualPages, cfg.ValueBits)
	if err != nil {
		return nil, err
	}
	scheme, err := core.NewScheme(params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries, cfg.TLBPolicy, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	ramY, err := policy.New(cfg.RAMPolicy, int(params.MaxResident), cfg.Seed+3)
	if err != nil {
		return nil, err
	}
	z := &Decoupled{
		cfg:    cfg,
		params: params,
		scheme: scheme,
		tlb:    t,
		ramY:   ramY,
		hshift: uint(bits.TrailingZeros64(uint64(params.HMax))),
	}
	z.ramFlat, _ = ramY.(*policy.DenseLRU)
	return z, nil
}

// Access implements Algorithm.
func (z *Decoupled) Access(v uint64) {
	z.costs.Accesses++
	u := z.params.HugePage(v)

	// --- RAM side (policy Y driving scheme D) ---
	hit, victim := z.ramY.Access(v)
	if victim != policy.NoEviction {
		// Evictions are free. (Multi-queue policies may evict even on a
		// hit, when promoting v displaces another key.)
		z.scheme.PageOut(victim)
		z.ex.Evict()
	}
	if !hit {
		z.costs.IOs++ // fetching v is one IO
		z.ex.DemandIO()
		z.scheme.PageIn(v) // may fail; failure tracked by D
	}

	// --- TLB side (policy X) ---
	if !z.tlb.Lookup(u) {
		z.costs.TLBMisses++
		z.ex.TLBMiss(u)
		z.tlb.Insert(u)
	}

	// --- Service the request via the decoding function f ---
	if z.scheme.IsFailed(v) {
		// Theorem 4 failure handling: one temporary IO + a decoding miss.
		z.costs.IOs++
		z.costs.DecodingMisses++
		z.ex.FailureIO(1)
		z.ex.DecodeMiss()
		z.failureHits++
		return
	}
	if phys := z.scheme.Lookup(v); phys == core.NullAddress {
		// v is resident and not failed, so f must decode it; reaching
		// here indicates a broken encoding, which must never happen.
		panic(fmt.Sprintf("mm: resident page %d failed to decode", v))
	}
}

// AccessBatch implements Batcher: the chunk is processed as two
// independent column passes instead of one interleaved per-access loop.
// The decoupling makes this exact: the TLB column lives in the
// huge-page keyspace and the RAM/decode column in the base-page keyspace,
// the scheme never invalidates or revalues TLB entries mid-stream, and
// every cost counter is a sum — so reordering work *between* columns
// (while preserving order *within* each) reproduces the scalar counters
// bit for bit (TestStagedBatchMatchesScalar).
//
//   - Pass 1 walks the request column through the flat Y cache, resolving
//     each miss through the allocator (victim out, v in) in stream order
//     — bucket loads depend on that order — and servicing failed pages.
//     Consecutive repeats of one page collapse: a repeat is a Y hit of
//     the MRU entry with no scheme traffic, and its decode check is a
//     pure re-read; only failed pages re-charge 1+ε per repeat.
//   - Pass 2 probes the huge-page column through the flat TLB, packing
//     the missed keys into the reused miss list; the list's length is
//     the column's ε-cost and (with attribution armed) its keys replay
//     into the TLB-miss classifier, whose state is per-key, so column
//     order preserves its answers.
//
// Configurations off the flat fast paths (non-LRU policies) keep the
// scalar loop.
func (z *Decoupled) AccessBatch(vs []uint64) {
	ry, t := z.ramFlat, z.tlb
	if ry == nil || !t.Flat() {
		for _, v := range vs {
			z.Access(v)
		}
		return
	}

	// Pass 1: RAM column (policy Y driving scheme D), plus failure/decode
	// servicing, which reads only scheme state of the accesses before it.
	scheme := z.scheme
	var ios, decodes, fhits uint64
	var prevV uint64
	prevFailed, havePrev := false, false
	for _, v := range vs {
		if havePrev && v == prevV {
			if prevFailed {
				ios++
				decodes++
				fhits++
				z.ex.FailureIO(1)
				z.ex.DecodeMiss()
			}
			continue
		}
		havePrev, prevV = true, v
		_, hit, victim := ry.AccessSlot(v)
		if !hit {
			ios++
			z.ex.DemandIO()
			if victim != policy.NoEviction {
				z.ex.Evict()
				prevFailed = scheme.ResolveMiss(v, victim, true)
			} else {
				prevFailed = scheme.ResolveMiss(v, 0, false)
			}
		} else {
			prevFailed = scheme.IsFailed(v)
		}
		if prevFailed {
			ios++
			decodes++
			fhits++
			z.ex.FailureIO(1)
			z.ex.DecodeMiss()
			continue
		}
		if phys := scheme.Lookup(v); phys == core.NullAddress {
			panic(fmt.Sprintf("mm: resident page %d failed to decode", v))
		}
	}

	// Pass 2: TLB column probe over huge-page keys, misses packed into
	// the reused miss list.
	if cap(z.miss) < len(vs) {
		z.miss = make([]uint64, 0, len(vs))
	}
	miss, _ := t.ProbeFill(vs, z.hshift, z.miss[:0])
	z.miss = miss
	if z.ex != nil {
		for _, u := range miss {
			z.ex.TLBMiss(u)
		}
	}

	z.costs.Accesses += uint64(len(vs))
	z.costs.IOs += ios
	z.costs.TLBMisses += uint64(len(miss))
	z.costs.DecodingMisses += decodes
	z.failureHits += fhits
}

// Costs implements Algorithm.
func (z *Decoupled) Costs() Costs { return z.costs }

// ResetCosts implements Algorithm.
func (z *Decoupled) ResetCosts() {
	z.costs = Costs{}
	z.ex.Reset()
	z.failureHits = 0
	z.tlb.ResetCounters()
}

// EnableExplain implements Explainer.
func (z *Decoupled) EnableExplain() {
	if z.ex == nil {
		z.ex = &explain.Counters{}
	}
}

// Explain implements Explainer.
func (z *Decoupled) Explain() *explain.Counters { return z.ex }

// ExplainGauges implements Gauger: RAM headroom against the derived δ,
// TLB reach at hmax granularity, and — when the allocator exposes bucket
// loads — the load histogram with the Theorem 2 bound evaluated at the
// target load λ = m/n, the bound-monitor comparison line for MaxLoad.
func (z *Decoupled) ExplainGauges() (explain.Gauges, bool) {
	g := occupancyGauges(z.scheme.Resident(), z.params.P)
	g.DeltaTarget = z.params.Delta
	g.CoveragePages = uint64(z.params.HMax)
	g.TLBReachPages = z.tlb.Reach(uint64(z.params.HMax))
	if la, ok := z.scheme.Allocator().(interface{ LoadHistogram() []int }); ok && z.params.NumBuckets > 0 {
		hist := la.LoadHistogram()
		var balls uint64
		maxLoad := 0
		for load, count := range hist {
			if count > 0 {
				maxLoad = load
				balls += uint64(load) * uint64(count)
			}
		}
		g.HasLoads = true
		g.Buckets = z.params.NumBuckets
		g.LoadHist = hist
		g.MaxLoad = maxLoad
		g.AvgLoad = float64(balls) / float64(z.params.NumBuckets)
		lambda := float64(z.params.MaxResident) / float64(z.params.NumBuckets)
		g.Theorem2Bound = ballsbins.Theorem2Bound(lambda, int(z.params.NumBuckets))
	}
	return g, true
}

// Name implements Algorithm.
func (z *Decoupled) Name() string {
	return fmt.Sprintf("decoupled(%s,hmax=%d,%s/%s)",
		z.cfg.Alloc, z.params.HMax, z.cfg.TLBPolicy, z.cfg.RAMPolicy)
}

// Params exposes the derived decoupling parameters.
func (z *Decoupled) Params() core.Params { return z.params }

// Scheme exposes the underlying decoupling scheme (read-only use).
func (z *Decoupled) Scheme() *core.Scheme { return z.scheme }

// FailureHits reports how many requests were serviced while their page was
// in the failure set F (each cost 1+ε extra).
func (z *Decoupled) FailureHits() uint64 { return z.failureHits }
