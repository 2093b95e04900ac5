// Package mm implements memory-management algorithms under the paper's
// address-translation cost model (Section 5).
//
// A memory-management algorithm services a sequence of virtual-page
// requests, controlling the TLB contents, the RAM active set, the
// virtual→physical mapping and the TLB decoding function. Costs:
//
//   - adding a page to the active set (an IO) costs 1;
//   - adding an entry to the TLB (a TLB miss) costs ε ∈ (0,1);
//   - a decoding miss (an encoded page wrongly decoding to −1) costs ε;
//   - evictions and TLB-value updates are free.
//
// Implementations:
//
//   - HugePage: the Section 6 trace-driven baseline, with physically
//     contiguous huge pages of size h (h=1 is classical paging, the
//     IO-optimizing Y side; h=hmax is the TLB-optimizing X side).
//   - Decoupled: Theorem 4's algorithm Z — huge-page decoupling driven by
//     a TLB-replacement policy X and RAM-replacement policy Y.
//   - Hybrid: the Section 8 sketch — decoupling over physically
//     contiguous groups of g pages.
package mm

import "fmt"

// Costs aggregates the cost counters of the address-translation model.
type Costs struct {
	IOs            uint64 // page moves between RAM and storage (cost 1 each)
	TLBMisses      uint64 // TLB insertions (cost ε each)
	DecodingMisses uint64 // decoding misses (cost ε each)
	Accesses       uint64 // requests serviced (not a cost; for rates)
}

// Total returns C = C_IO + C_TLB + C_D for the given ε.
func (c Costs) Total(epsilon float64) float64 {
	return float64(c.IOs) + epsilon*float64(c.TLBMisses+c.DecodingMisses)
}

// Add accumulates other into c.
func (c *Costs) Add(other Costs) {
	c.IOs += other.IOs
	c.TLBMisses += other.TLBMisses
	c.DecodingMisses += other.DecodingMisses
	c.Accesses += other.Accesses
}

// String formats the counters compactly: the three cost counters first
// (IOs cost 1; TLB and decoding misses cost ε), then the access count,
// which is a rate denominator rather than a cost.
func (c Costs) String() string {
	return fmt.Sprintf("ios=%d tlb_misses=%d decode_misses=%d accesses=%d",
		c.IOs, c.TLBMisses, c.DecodingMisses, c.Accesses)
}

// Algorithm is a memory-management algorithm servicing one request at a
// time (online), or a whole request slice per call through the embedded
// Batcher.
type Algorithm interface {
	Batcher

	// Access services a request for virtual page v, updating cost
	// counters.
	Access(v uint64)

	// Costs returns the accumulated counters.
	Costs() Costs

	// ResetCosts zeroes the counters, keeping all cache/RAM state — used
	// to discard warmup, as in the paper's methodology.
	ResetCosts()

	// Name identifies the algorithm configuration.
	Name() string
}

// Batcher is the batch half of Algorithm: the batch loop runs over the
// concrete receiver, so the per-request interface dispatch of a generic
// Access loop disappears and the access path inlines. It is the one
// entry point every runner and harness drives chunks through.
type Batcher interface {
	// AccessBatch services the requests in order, exactly as repeated
	// Access calls would.
	AccessBatch(vs []uint64)
}

// Run services every request in order and returns the final counters.
func Run(a Algorithm, requests []uint64) Costs {
	a.AccessBatch(requests)
	return a.Costs()
}

// Phase labels of the two-phase methodology, used by the row executor
// and the telemetry layer: the warmup phase covers the accesses before
// the counter reset, the measured phase the accesses after it.
const (
	PhaseWarmup   = "warmup"
	PhaseMeasured = "measured"
)

// RunWarm services warmup requests, resets counters, then services the
// measured requests — the paper's two-phase methodology.
func RunWarm(a Algorithm, warmup, measured []uint64) Costs {
	a.AccessBatch(warmup)
	a.ResetCosts()
	return Run(a, measured)
}
