// Package core implements the paper's primary contribution: huge-page
// decoupling (Section 3), low-associativity RAM allocation with compact TLB
// encodings (Section 4, Theorems 1 and 3), and the plumbing the Simulation
// Theorem (Section 5, Theorem 4) builds on.
//
// The key objects are:
//
//   - Params: the derived constants of a decoupling scheme — bucket size B,
//     number of buckets n, front threshold, maximum resident pages
//     m = (1−δ)P, and the huge-page size hmax = Θ(w / log |code space|)
//     that fits in a w-bit TLB value.
//   - Allocator: a RAM-allocation scheme assigning stable physical
//     addresses with limited associativity; three implementations
//     (fully associative, single-choice/Theorem 1, Iceberg/Theorem 3).
//   - Encoder: the TLB-encoding scheme ψ maintaining a w-bit value per
//     virtual huge page, all of them in one flat table of machine words.
//   - Scheme: the assembled huge-page decoupling scheme D, tracking the
//     paging-failure set F; its Lookup is the decoding function f
//     recovering φ(v) or the null address −1.
package core

import (
	"fmt"
	"math"
	"math/bits"

	"addrxlat/internal/bitpack"
)

// AllocKind selects a RAM-allocation scheme.
type AllocKind string

// Supported allocation schemes.
const (
	// FullyAssociative places pages anywhere (classical paging; hmax=1
	// because each page needs a full log P-bit address).
	FullyAssociative AllocKind = "full"
	// SingleChoice is the Theorem 1 warm-up: k=1 hash choice into buckets
	// of size B = Θ(log P · log log P), giving hmax = Θ(w / log log P).
	SingleChoice AllocKind = "single"
	// IcebergAlloc is the Theorem 3 scheme: k=3 hash choices following the
	// Iceberg[2] rule into buckets of size B = Θ̃(log log P), giving
	// hmax = Θ(w / log log log P).
	IcebergAlloc AllocKind = "iceberg"
)

// Params holds the derived constants of a huge-page decoupling scheme.
type Params struct {
	Kind AllocKind

	P uint64 // physical memory size in pages
	V uint64 // virtual address space size in pages
	W int    // bits per TLB value (set by hardware)

	K          int    // number of hash choices (0 for fully associative)
	B          int    // bucket size in page slots (0 for fully associative)
	NumBuckets uint64 // n = number of buckets
	Threshold  int    // Iceberg front-bin threshold (0 unless Iceberg)

	MaxResident uint64  // m = (1−δ)P: cap on simultaneously resident pages
	Delta       float64 // resource-augmentation parameter δ

	BitsPerPage uint // bits per per-page location code in a TLB value
	HMax        int  // huge-page size: pages covered per TLB entry
}

// log2 clamped to a minimum of lo.
func clampedLog2(x float64, lo float64) float64 {
	if x < 2 {
		return lo
	}
	v := math.Log2(x)
	if v < lo {
		return lo
	}
	return v
}

// DeriveParams computes decoupling-scheme constants for a machine with P
// physical pages, V virtual pages, and w-bit TLB values, following the
// paper's Section 4 settings. It returns an error if the configuration is
// too small to support even hmax = 1, or if arguments are invalid.
func DeriveParams(kind AllocKind, P, V uint64, w int) (Params, error) {
	if P == 0 || V == 0 {
		return Params{}, fmt.Errorf("core: P and V must be positive (P=%d, V=%d)", P, V)
	}
	if w <= 0 || w > 4096 {
		return Params{}, fmt.Errorf("core: TLB value width w=%d out of range (0, 4096]", w)
	}
	p := Params{Kind: kind, P: P, V: V, W: w}

	logP := clampedLog2(float64(P), 1)
	loglogP := clampedLog2(logP, 1)
	logloglogP := clampedLog2(loglogP, 1)

	switch kind {
	case FullyAssociative:
		// Classical paging: one full physical address per TLB value.
		p.K = 0
		p.B = 0
		p.NumBuckets = 0
		p.MaxResident = P
		p.Delta = 0
		p.BitsPerPage = bitpack.WidthFor(P) // codes 0..P-1 plus sentinel P
		p.HMax = w / int(p.BitsPerPage)

	case SingleChoice:
		// Theorem 1: λ = log P · log log P, B ≈ λ(1+δ) with
		// δ = O(1/√(log log P)); max load λ + O(√(λ log n)).
		lambda := logP * loglogP
		if lambda < 1 {
			lambda = 1
		}
		// n ≈ P/λ for the log n inside the deviation term.
		nApprox := float64(P) / lambda
		dev := 2 * math.Sqrt(lambda*clampedLog2(nApprox, 1))
		B := int(math.Ceil(lambda + dev))
		if uint64(B) > P {
			B = int(P)
		}
		p.K = 1
		p.B = B
		p.NumBuckets = P / uint64(B)
		if p.NumBuckets == 0 {
			p.NumBuckets = 1
			p.B = int(P)
		}
		p.MaxResident = uint64(math.Floor(lambda * float64(p.NumBuckets)))
		if p.MaxResident == 0 {
			p.MaxResident = 1
		}
		if p.MaxResident > P {
			p.MaxResident = P
		}
		p.Delta = 1 - float64(p.MaxResident)/float64(P)
		// Codes 0..B-1 plus the sentinel B: width for max value B.
		p.BitsPerPage = bitpack.WidthFor(uint64(p.B))
		p.HMax = w / int(p.BitsPerPage)

	case IcebergAlloc:
		// Theorem 3: λ = Θ(log log P · log log log P); threshold ≈ (1+ε)λ;
		// back contribution log log n + O(1); B = threshold + back room.
		// The constant in the Θ is set to 4 (cf. the paper's footnote 5:
		// associativity can be scaled within poly(log log P) to optimize
		// δ): at simulation-scale P this shrinks δ substantially while
		// leaving ⌈log₂ 3B⌉ — and hence hmax — unchanged.
		lambda := 4 * loglogP * logloglogP
		if lambda < 1 {
			lambda = 1
		}
		threshold := int(math.Ceil(lambda * 1.05))
		if threshold < 1 {
			threshold = 1
		}
		nApprox := float64(P) / lambda
		backRoom := int(math.Ceil(clampedLog2(clampedLog2(nApprox, 1), 1))) + 4
		B := threshold + backRoom
		if uint64(B) > P {
			B = int(P)
			threshold = B
		}
		p.K = 3
		p.B = B
		p.Threshold = threshold
		p.NumBuckets = P / uint64(B)
		if p.NumBuckets == 0 {
			p.NumBuckets = 1
			p.B = int(P)
			p.Threshold = p.B
		}
		p.MaxResident = uint64(math.Floor(lambda * float64(p.NumBuckets)))
		if p.MaxResident == 0 {
			p.MaxResident = 1
		}
		if p.MaxResident > P {
			p.MaxResident = P
		}
		p.Delta = 1 - float64(p.MaxResident)/float64(P)
		// Codes 0..3B-1 plus sentinel 3B: width for max value 3B.
		p.BitsPerPage = bitpack.WidthFor(uint64(3 * p.B))
		p.HMax = w / int(p.BitsPerPage)

	default:
		return Params{}, fmt.Errorf("core: unknown allocation kind %q", kind)
	}

	if p.HMax < 1 {
		return Params{}, fmt.Errorf(
			"core: TLB value width w=%d too small for even one %d-bit page code (kind %q, P=%d)",
			w, p.BitsPerPage, kind, P)
	}
	// Round hmax down to a power of two, as the paper assumes (huge-page
	// sizes are powers of two and hmax divides V).
	p.HMax = 1 << uint(math.Floor(math.Log2(float64(p.HMax))))
	return p, nil
}

// HugePage returns the virtual huge-page address r(v) containing virtual
// page v: the paper's r(v) = v − (v mod hmax), expressed as the huge-page
// index v / hmax. HMax is a power of two, so this is a shift.
func (p Params) HugePage(v uint64) uint64 {
	return v >> p.hugeShift()
}

// PageIndex returns v's index within its huge page, v mod hmax, as a mask.
func (p Params) PageIndex(v uint64) int {
	return int(v & (uint64(p.HMax) - 1))
}

// hugeShift returns log₂ hmax.
func (p Params) hugeShift() uint {
	return uint(bits.TrailingZeros64(uint64(p.HMax)))
}

// AbsentCode is the per-page sentinel meaning "not resident" (the paper's
// null address −1 at the code level).
func (p Params) AbsentCode() uint64 {
	switch p.Kind {
	case FullyAssociative:
		return p.P
	default:
		return uint64(p.K * p.B)
	}
}

// String renders the parameters compactly for experiment logs.
func (p Params) String() string {
	return fmt.Sprintf(
		"kind=%s P=%d V=%d w=%d k=%d B=%d n=%d thresh=%d m=%d δ=%.4f bits/page=%d hmax=%d",
		p.Kind, p.P, p.V, p.W, p.K, p.B, p.NumBuckets, p.Threshold,
		p.MaxResident, p.Delta, p.BitsPerPage, p.HMax)
}
