// Package bitpack implements fixed-width bit-field arrays packed into 64-bit
// words.
//
// The paper's TLB-encoding scheme stores, inside a single w-bit TLB value,
// an array of hmax fields of ceil(log2(kB+1)) bits each — one field per
// constituent base page of a virtual huge page. This package provides that
// array: fields of fixed width laid out contiguously in a little-endian
// bit vector, with O(1) get/set per field. Get and Set do the bit math over
// a caller-held []uint64, so a table of many such values can live in one
// flat slice; FieldArray wraps them for a single bounds-checked value.
package bitpack

import "fmt"

// FieldArray is an array of n unsigned integer fields, each `width` bits
// wide, packed into 64-bit words. Fields may straddle word boundaries.
type FieldArray struct {
	words []uint64
	n     int
	width uint
}

// NewFieldArray creates an array of n fields of the given bit width, all
// initialized to zero. width must be in [1, 64].
func NewFieldArray(n int, width uint) *FieldArray {
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative field count %d", n))
	}
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("bitpack: field width %d out of range [1,64]", width))
	}
	totalBits := uint64(n) * uint64(width)
	return &FieldArray{
		words: make([]uint64, (totalBits+63)/64),
		n:     n,
		width: width,
	}
}

// Len returns the number of fields.
func (a *FieldArray) Len() int { return a.n }

// Width returns the width in bits of each field.
func (a *FieldArray) Width() uint { return a.width }

// Bits returns the total number of bits the array occupies (n * width).
func (a *FieldArray) Bits() int { return a.n * int(a.width) }

// Mask returns a mask of the low width bits, for width in [1, 64].
func Mask(width uint) uint64 { return ^uint64(0) >> (64 - width) }

// Get returns the width-bit field that starts at bit offset bit of words
// (bit 0 is the least-significant bit of words[0]). The field may
// straddle a word boundary. width must be in [1, 64].
func Get(words []uint64, bit uint64, width uint) uint64 {
	word, off := bit>>6, bit&63
	v := words[word] >> off
	if off+uint64(width) > 64 {
		v |= words[word+1] << (64 - off)
	}
	return v & Mask(width)
}

// Set stores v into the width-bit field that starts at bit offset bit of
// words, leaving every other bit unchanged. v must fit in width bits.
func Set(words []uint64, bit uint64, width uint, v uint64) {
	m := Mask(width)
	word, off := bit>>6, bit&63
	words[word] = words[word]&^(m<<off) | v<<off
	if off+uint64(width) > 64 {
		spill := 64 - off
		words[word+1] = words[word+1]&^(m>>spill) | v>>spill
	}
}

// Get returns field i.
func (a *FieldArray) Get(i int) uint64 {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitpack: Get index %d out of range [0,%d)", i, a.n))
	}
	return Get(a.words, uint64(i)*uint64(a.width), a.width)
}

// Set stores v into field i. v must fit in Width() bits.
func (a *FieldArray) Set(i int, v uint64) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitpack: Set index %d out of range [0,%d)", i, a.n))
	}
	if v&^Mask(a.width) != 0 {
		panic(fmt.Sprintf("bitpack: value %d does not fit in %d bits", v, a.width))
	}
	Set(a.words, uint64(i)*uint64(a.width), a.width, v)
}

// Fill sets every field to v.
func (a *FieldArray) Fill(v uint64) {
	for i := 0; i < a.n; i++ {
		a.Set(i, v)
	}
}

// Words exposes the backing words (least-significant field first). The
// returned slice aliases the array's storage; callers must not modify it.
// It exists so tests and the TLB model can check the encoded value really
// fits in w bits.
func (a *FieldArray) Words() []uint64 { return a.words }

// Clone returns a deep copy.
func (a *FieldArray) Clone() *FieldArray {
	w := make([]uint64, len(a.words))
	copy(w, a.words)
	return &FieldArray{words: w, n: a.n, width: a.width}
}

// WidthFor returns the minimum field width able to represent values in
// [0, maxValue], i.e. ceil(log2(maxValue+1)), and at least 1.
func WidthFor(maxValue uint64) uint {
	w := uint(1)
	for maxValue>>w != 0 {
		w++
	}
	return w
}
