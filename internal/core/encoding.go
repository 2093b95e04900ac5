package core

import (
	"fmt"

	"addrxlat/internal/bitpack"
)

// NullAddress is the paper's −1: the value the decoding function f returns
// for a virtual page that is not in the active set.
const NullAddress = ^uint64(0)

// Encoder is the TLB-encoding scheme ψ (Section 3). For every virtual huge
// page it maintains the w-bit TLB value: an array of hmax per-page location
// codes, each BitsPerPage wide, with the absent sentinel for non-resident
// pages.
//
// ψ is one flat []uint64 allocated once for the ⌈V/hmax⌉ virtual huge
// pages: huge page u owns the ⌈hmax·b/64⌉ words starting at word
// u·⌈hmax·b/64⌉, and page index i within it is the b-bit field at bit
// i·b of those words — the layout of a bitpack.FieldArray of hmax fields.
// Virtual huge pages are densely numbered, so the table is the paper's
// "constant time" hash table of the Theorem 1 proof with the hash being
// the identity. Every huge page starts all-absent; paging never allocates.
//
// The Encoder is updated by the decoupling scheme whenever the
// RAM-replacement policy changes the active set; the TLB model reads
// values out when the TLB-replacement policy inserts a huge page.
type Encoder struct {
	words    []uint64 // ψ, stride words per huge page
	resident []uint16 // resident pages per huge page (hmax ≤ 4096)
	active   int      // huge pages with resident > 0

	// Decode constants, cached so the read path touches no Params.
	shift  uint   // log₂ hmax: r(v) = v >> shift
	index  uint64 // hmax − 1: v's page index = v & index
	width  uint   // b, bits per page code
	stride uint64 // words per huge page
	absent uint64 // the absent sentinel code
}

// NewEncoder creates the encoding scheme for the given parameters, with
// every page of every virtual huge page in [0, ⌈V/hmax⌉) absent.
func NewEncoder(p Params) *Encoder {
	if p.HMax <= 0 || p.HMax&(p.HMax-1) != 0 || p.BitsPerPage == 0 || p.BitsPerPage > 64 {
		panic(fmt.Sprintf("core: invalid encoder params hmax=%d bits=%d", p.HMax, p.BitsPerPage))
	}
	hmax, width := uint64(p.HMax), p.BitsPerPage
	huge := (p.V + hmax - 1) / hmax
	stride := (hmax*uint64(width) + 63) / 64
	words := make([]uint64, huge*stride)
	// Mark huge page 0 all-absent, then stamp its words over the rest.
	for i := uint64(0); i < hmax; i++ {
		bitpack.Set(words, i*uint64(width), width, p.AbsentCode())
	}
	for base := stride; base < uint64(len(words)); base += stride {
		copy(words[base:base+stride], words[:stride])
	}
	return &Encoder{
		words:    words,
		resident: make([]uint16, huge),
		shift:    p.hugeShift(),
		index:    hmax - 1,
		width:    width,
		stride:   stride,
		absent:   p.AbsentCode(),
	}
}

// bit returns the bit offset of v's code within ψ.
func (e *Encoder) bit(v uint64) uint64 {
	return (v>>e.shift)*e.stride<<6 + (v&e.index)*uint64(e.width)
}

// code returns v's code in the live ψ(r(v)).
func (e *Encoder) code(v uint64) uint64 {
	return bitpack.Get(e.words, e.bit(v), e.width)
}

// codeIn returns v's code in value, a caller-held copy of ψ(r(v)).
func (e *Encoder) codeIn(v uint64, value []uint64) uint64 {
	return bitpack.Get(value, (v&e.index)*uint64(e.width), e.width)
}

// PageAdded records that virtual page v became resident with the given
// location code, updating ψ(r(v)) in O(1).
func (e *Encoder) PageAdded(v uint64, code uint64) {
	if code >= e.absent {
		panic(fmt.Sprintf("core: code %d out of range [0,%d)", code, e.absent))
	}
	bit := e.bit(v)
	if bitpack.Get(e.words, bit, e.width) != e.absent {
		panic(fmt.Sprintf("core: PageAdded for already-resident page %d", v))
	}
	bitpack.Set(e.words, bit, e.width, code)
	u := v >> e.shift
	if e.resident[u] == 0 {
		e.active++
	}
	e.resident[u]++
}

// PageRemoved records that virtual page v left the active set.
func (e *Encoder) PageRemoved(v uint64) {
	bit := e.bit(v)
	if bitpack.Get(e.words, bit, e.width) == e.absent {
		panic(fmt.Sprintf("core: PageRemoved for non-resident page %d", v))
	}
	bitpack.Set(e.words, bit, e.width, e.absent)
	u := v >> e.shift
	e.resident[u]--
	if e.resident[u] == 0 {
		e.active--
	}
}

// Value returns ψ(u), the current w-bit TLB value for virtual huge page u,
// as the live words of the table. The slice aliases ψ and must be treated
// as read-only; it changes as pages of u come and go. The TLB copies it on
// insertion (Snapshot) to model the hardware latching a value.
func (e *Encoder) Value(u uint64) []uint64 {
	base := u * e.stride
	return e.words[base : base+e.stride : base+e.stride]
}

// Snapshot returns a copy of ψ(u) frozen at the current moment.
func (e *Encoder) Snapshot(u uint64) []uint64 {
	return append([]uint64(nil), e.Value(u)...)
}

// ResidentInHugePage returns how many of u's constituent pages are
// resident.
func (e *Encoder) ResidentInHugePage(u uint64) int {
	return int(e.resident[u])
}

// EncodedHugePages returns how many huge pages currently have at least one
// resident page (the occupancy of the proof's "constant time" table).
func (e *Encoder) EncodedHugePages() int { return e.active }
