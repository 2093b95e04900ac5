// Package explain defines the cost-attribution event taxonomy of the
// observability layer: fine-grained counters that split the cost model's
// three aggregate counters (IOs, TLB misses, decoding misses) into the
// mechanisms that caused them, plus structural gauges sampled at chunk
// boundaries.
//
// The package imports only internal/dense: the mm algorithms increment
// Counters directly on their hot paths, and internal/obs re-exports the
// types (obs.Counters is an alias), so the taxonomy is shared without an
// mm → obs import cycle.
//
// The nil contract mirrors the rest of the telemetry stack: every method
// is a no-op on a nil *Counters, so algorithms hold a nil pointer until
// explain mode is enabled and the instrumented call sites compile down to
// one predictable branch. Attribution only ever *observes* — no method
// mutates algorithm state — so tables stay byte-identical with the sink
// enabled or disabled.
//
// The TLB-miss classifier is a flat table indexed by key (dense.Table),
// one byte per key up to the highest key classified, so its memory grows
// with the highest key a simulator misses on, not with a hash-map entry
// per distinct key. Tagged keys at or above dense.SparseBound (the nested
// model's page-table region) fall back to the table's map.
package explain

import "addrxlat/internal/dense"

// TLB-miss classes. A miss is compulsory when the key was never TLB-
// resident before, coverage-loss when the key's entry was explicitly
// invalidated (huge-page demotion, preemption, eviction shootdown) since
// it was last resident, and capacity otherwise (pushed out by replacement
// pressure).
const (
	tlbSeen        = 1 // key has been TLB-resident at some point
	tlbInvalidated = 2 // key's entry was invalidated since it was resident
)

// Counters is the event taxonomy. The exported fields split the cost
// model's aggregates by cause:
//
//   - IOs = IODemand + IOAmplified + IOFailure: demand fault-ins of the
//     requested page, amplification fills (the h−1 extra pages of a
//     huge-page fault, promotion copy-fetches), and the temporary IOs of
//     the Theorem 4 paging-failure path.
//   - TLBMisses = TLBCompulsory + TLBCapacity + TLBCoverageLoss.
//   - DecodeMisses mirrors Costs.DecodingMisses (always failure-path).
//
// The remaining fields count events that are free in the cost model but
// explain its dynamics: evictions, entry invalidations, huge-page
// promotions/demotions/preemptions, multi-core shootdowns, nested
// page-table-walk references, and coalesced-TLB fill outcomes.
type Counters struct {
	IODemand    uint64 `json:"io_demand"`
	IOAmplified uint64 `json:"io_amplified"`
	IOFailure   uint64 `json:"io_failure,omitempty"`

	TLBCompulsory   uint64 `json:"tlb_compulsory"`
	TLBCapacity     uint64 `json:"tlb_capacity"`
	TLBCoverageLoss uint64 `json:"tlb_coverage_loss,omitempty"`

	DecodeMisses uint64 `json:"decode_misses,omitempty"`

	Evictions        uint64 `json:"evictions,omitempty"`
	TLBInvalidations uint64 `json:"tlb_invalidations,omitempty"`
	Promotions       uint64 `json:"promotions,omitempty"`
	Demotions        uint64 `json:"demotions,omitempty"`
	Preemptions      uint64 `json:"preemptions,omitempty"`
	Shootdowns       uint64 `json:"shootdowns,omitempty"`
	NestedWalks      uint64 `json:"nested_walks,omitempty"`
	CoalescedFills   uint64 `json:"coalesced_fills,omitempty"`
	SingleFills      uint64 `json:"single_fills,omitempty"`

	// tlbState is the miss classifier: per key, whether it has ever been
	// TLB-resident and whether it was invalidated since (0, the zero
	// value, is "never seen"). It grows on demand from the first
	// classified miss; kept across Reset (it is cache-like history,
	// analogous to the TLB contents surviving ResetCosts).
	tlbState dense.Table[uint8]
}

// DemandIO counts one demand fault-in.
func (c *Counters) DemandIO() {
	if c != nil {
		c.IODemand++
	}
}

// AmplifiedIO counts n amplification-fill IOs (extra pages moved beyond
// the demanded one: huge-page fault fills, promotion copy-fetches).
func (c *Counters) AmplifiedIO(n uint64) {
	if c != nil {
		c.IOAmplified += n
	}
}

// FailureIO counts n temporary IOs on the paging-failure path.
func (c *Counters) FailureIO(n uint64) {
	if c != nil {
		c.IOFailure += n
	}
}

// DecodeMiss counts one decoding miss.
func (c *Counters) DecodeMiss() {
	if c != nil {
		c.DecodeMisses++
	}
}

// Evict counts one eviction (free in the cost model).
func (c *Counters) Evict() {
	if c != nil {
		c.Evictions++
	}
}

// Promote counts one huge-page promotion.
func (c *Counters) Promote() {
	if c != nil {
		c.Promotions++
	}
}

// Demote counts one wholesale demotion of a promoted region.
func (c *Counters) Demote() {
	if c != nil {
		c.Demotions++
	}
}

// Preempt counts one reservation preemption.
func (c *Counters) Preempt() {
	if c != nil {
		c.Preemptions++
	}
}

// Shootdown counts one cross-core TLB invalidation.
func (c *Counters) Shootdown() {
	if c != nil {
		c.Shootdowns++
	}
}

// NestedWalk counts one extra host reference caused by a guest TLB miss.
func (c *Counters) NestedWalk() {
	if c != nil {
		c.NestedWalks++
	}
}

// CoalescedFill counts one TLB fill that covered a whole contiguous group.
func (c *Counters) CoalescedFill() {
	if c != nil {
		c.CoalescedFills++
	}
}

// SingleFill counts one TLB fill that covered a single page.
func (c *Counters) SingleFill() {
	if c != nil {
		c.SingleFills++
	}
}

// TLBMiss classifies and counts one TLB miss for key. Keys are the
// algorithm's own TLB keyspace (tagged where several TLBs or entry kinds
// coexist); the classifier only needs them to be stable per translation.
func (c *Counters) TLBMiss(key uint64) {
	if c == nil {
		return
	}
	switch st := c.tlbState.At(key); {
	case st == 0:
		c.TLBCompulsory++
	case st&tlbInvalidated != 0:
		c.TLBCoverageLoss++
	default:
		c.TLBCapacity++
	}
	c.tlbState.Set(key, tlbSeen)
}

// TLBInvalidated records that key's entry was explicitly invalidated
// (demotion, preemption, eviction of the backing page, shootdown): the
// key's next miss is coverage loss, not capacity pressure.
func (c *Counters) TLBInvalidated(key uint64) {
	if c == nil {
		return
	}
	c.TLBInvalidations++
	c.tlbState.Set(key, tlbSeen|tlbInvalidated)
}

// Reset zeroes the event counts, keeping the miss-classifier history —
// the same contract as Algorithm.ResetCosts, which keeps cache state, so
// a compulsory miss during warmup stays compulsory-once for the run.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	state := c.tlbState
	*c = Counters{tlbState: state}
}

// Snapshot returns a copy of the counters safe to hand across goroutines
// (the classifier state is not shared).
func (c *Counters) Snapshot() Counters {
	if c == nil {
		return Counters{}
	}
	s := *c
	s.tlbState = dense.Table[uint8]{}
	return s
}

// Sub returns the field-wise difference a − b of two snapshots, for
// wrappers (Hybrid) that attribute an inner algorithm's per-access delta.
func Sub(a, b Counters) Counters {
	return Counters{
		IODemand:         a.IODemand - b.IODemand,
		IOAmplified:      a.IOAmplified - b.IOAmplified,
		IOFailure:        a.IOFailure - b.IOFailure,
		TLBCompulsory:    a.TLBCompulsory - b.TLBCompulsory,
		TLBCapacity:      a.TLBCapacity - b.TLBCapacity,
		TLBCoverageLoss:  a.TLBCoverageLoss - b.TLBCoverageLoss,
		DecodeMisses:     a.DecodeMisses - b.DecodeMisses,
		Evictions:        a.Evictions - b.Evictions,
		TLBInvalidations: a.TLBInvalidations - b.TLBInvalidations,
		Promotions:       a.Promotions - b.Promotions,
		Demotions:        a.Demotions - b.Demotions,
		Preemptions:      a.Preemptions - b.Preemptions,
		Shootdowns:       a.Shootdowns - b.Shootdowns,
		NestedWalks:      a.NestedWalks - b.NestedWalks,
		CoalescedFills:   a.CoalescedFills - b.CoalescedFills,
		SingleFills:      a.SingleFills - b.SingleFills,
	}
}

// Merge accumulates a snapshot into c (no-op on nil).
func (c *Counters) Merge(d Counters) {
	if c == nil {
		return
	}
	c.IODemand += d.IODemand
	c.IOAmplified += d.IOAmplified
	c.IOFailure += d.IOFailure
	c.TLBCompulsory += d.TLBCompulsory
	c.TLBCapacity += d.TLBCapacity
	c.TLBCoverageLoss += d.TLBCoverageLoss
	c.DecodeMisses += d.DecodeMisses
	c.Evictions += d.Evictions
	c.TLBInvalidations += d.TLBInvalidations
	c.Promotions += d.Promotions
	c.Demotions += d.Demotions
	c.Preemptions += d.Preemptions
	c.Shootdowns += d.Shootdowns
	c.NestedWalks += d.NestedWalks
	c.CoalescedFills += d.CoalescedFills
	c.SingleFills += d.SingleFills
}

// IOs returns the attributed IO total, for cross-checks against Costs.IOs.
func (c Counters) IOs() uint64 { return c.IODemand + c.IOAmplified + c.IOFailure }

// TLBMisses returns the classified miss total, for cross-checks against
// Costs.TLBMisses.
func (c Counters) TLBMisses() uint64 { return c.TLBCompulsory + c.TLBCapacity + c.TLBCoverageLoss }

// Gauges are structural measurements sampled at chunk boundaries: where
// the RAM and TLB actually stand, against what the theorems promise.
// HasLoads marks gauges carrying a bucket-load histogram (decoupled
// allocators only).
type Gauges struct {
	// RAM occupancy: resident pages over capacity. DeltaObserved is the
	// measured RAM headroom 1 − resident/P; DeltaTarget the construction's
	// derived δ (0 when the algorithm has no augmentation parameter).
	ResidentPages uint64  `json:"resident_pages"`
	RAMPages      uint64  `json:"ram_pages"`
	Utilization   float64 `json:"utilization"`
	DeltaTarget   float64 `json:"delta_target,omitempty"`
	DeltaObserved float64 `json:"delta_observed"`

	// FragmentedPages counts RAM charged but not backing data (reserved-
	// but-unpopulated superpage frames); Fragmentation is its fraction of
	// RAM.
	FragmentedPages uint64  `json:"fragmented_pages,omitempty"`
	Fragmentation   float64 `json:"fragmentation,omitempty"`

	// TLB coverage: pages per entry (hmax or the huge-page size) and the
	// current reach of the live entries. PromotedRegions counts regions
	// currently mapped by one huge entry (adaptive baselines).
	CoveragePages   uint64 `json:"coverage_pages,omitempty"`
	TLBReachPages   uint64 `json:"tlb_reach_pages,omitempty"`
	PromotedRegions uint64 `json:"promoted_regions,omitempty"`

	// Bucket loads (decoupled allocators): the load histogram over the n
	// buckets, its average λ and maximum, and the Theorem 2 bound
	// (1+o(1))λ + log log n + O(1) evaluated at this geometry — the bound
	// monitor compares MaxLoad against Theorem2Bound.
	HasLoads      bool    `json:"has_loads,omitempty"`
	Buckets       uint64  `json:"buckets,omitempty"`
	AvgLoad       float64 `json:"avg_load,omitempty"`
	MaxLoad       int     `json:"max_load,omitempty"`
	Theorem2Bound float64 `json:"theorem2_bound,omitempty"`
	LoadHist      []int   `json:"load_hist,omitempty"`
}
