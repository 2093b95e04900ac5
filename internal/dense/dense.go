// Package dense provides flat-array replacements for map[uint64]V on the
// simulator's hot paths. Virtual- and physical-page spaces are bounded and
// densely numbered (VirtualPages, RAMPages are fixed at construction), so
// keyed state can live in a slice indexed by page number instead of a hash
// table: no hashing, no pointer chasing, no per-entry heap boxes, and
// deterministic iteration order for free.
//
// A Table grows geometrically on demand, so callers that touch only a
// prefix of the key space pay memory proportional to the highest key
// touched, not the nominal bound.
package dense

// SparseBound is the key bound of the flat region: keys below it live in
// the grow-on-demand array; keys at or above it fall back to a hash map.
// Page and region numbers — the intended keys — sit far below the bound,
// so the map exists only for callers that tag keys with high bits (e.g.
// the nested-translation model's page-table region at 1<<62).
const SparseBound = 1 << 26

// Table is a flat-array map from small dense uint64 keys to values. A
// caller-chosen sentinel value denotes absence; Set with the sentinel is
// rejected so presence stays unambiguous.
type Table[V comparable] struct {
	vals   []V
	sparse map[uint64]V // keys ≥ SparseBound only; nil until first needed
	absent V
	n      int
}

// NewTable creates a table whose absent entries read as `absent`.
// sizeHint pre-allocates capacity for keys [0, sizeHint); pass 0 to grow
// purely on demand.
func NewTable[V comparable](absent V, sizeHint int) *Table[V] {
	t := &Table[V]{absent: absent}
	if sizeHint > 0 {
		t.grow(uint64(sizeHint - 1))
	}
	return t
}

// grow extends vals so that key k (< SparseBound) is in range, filling
// with the sentinel.
func (t *Table[V]) grow(k uint64) {
	newLen := uint64(len(t.vals))*2 + 1
	if newLen <= k {
		newLen = k + 1
	}
	if newLen > SparseBound {
		newLen = SparseBound
	}
	vals := make([]V, newLen)
	copy(vals, t.vals)
	for i := len(t.vals); i < len(vals); i++ {
		vals[i] = t.absent
	}
	t.vals = vals
}

// Get returns the value stored for k and whether k is present.
func (t *Table[V]) Get(k uint64) (V, bool) {
	if k >= SparseBound {
		v, ok := t.sparse[k]
		if !ok {
			return t.absent, false
		}
		return v, true
	}
	if k >= uint64(len(t.vals)) {
		return t.absent, false
	}
	v := t.vals[k]
	return v, v != t.absent
}

// At returns the value stored for k, or the sentinel if absent. This is
// the branch-light accessor for hot loops that treat the sentinel as a
// first-class "not resident" code.
func (t *Table[V]) At(k uint64) V {
	if k >= SparseBound {
		if v, ok := t.sparse[k]; ok {
			return v
		}
		return t.absent
	}
	if k >= uint64(len(t.vals)) {
		return t.absent
	}
	return t.vals[k]
}

// Contains reports whether k is present.
func (t *Table[V]) Contains(k uint64) bool {
	if k >= SparseBound {
		_, ok := t.sparse[k]
		return ok
	}
	return k < uint64(len(t.vals)) && t.vals[k] != t.absent
}

// Set stores v for key k. Storing the sentinel value panics — use Delete.
func (t *Table[V]) Set(k uint64, v V) {
	if v == t.absent {
		panic("dense: Set with the absent sentinel")
	}
	if k >= SparseBound {
		if t.sparse == nil {
			t.sparse = make(map[uint64]V)
		}
		if _, ok := t.sparse[k]; !ok {
			t.n++
		}
		t.sparse[k] = v
		return
	}
	if k >= uint64(len(t.vals)) {
		t.grow(k)
	}
	if t.vals[k] == t.absent {
		t.n++
	}
	t.vals[k] = v
}

// Delete removes k, reporting whether it was present.
func (t *Table[V]) Delete(k uint64) bool {
	if k >= SparseBound {
		if _, ok := t.sparse[k]; !ok {
			return false
		}
		delete(t.sparse, k)
		t.n--
		return true
	}
	if k >= uint64(len(t.vals)) || t.vals[k] == t.absent {
		return false
	}
	t.vals[k] = t.absent
	t.n--
	return true
}

// Len returns the number of present entries.
func (t *Table[V]) Len() int { return t.n }

// Absent returns the table's sentinel value.
func (t *Table[V]) Absent() V { return t.absent }

// Cap returns the current backing-array length (highest grown key + 1);
// exposed for tests and memory accounting.
func (t *Table[V]) Cap() int { return len(t.vals) }

// Flat returns the flat region's backing array: the value of a key k
// below len(Flat()) is Flat()[k]. A column kernel reads and writes it
// directly instead of calling At and Set per element (Set is not inlined
// at generic call sites). A direct write must keep the count Len
// reports: overwrite a present value with another present value, or
// clear one present key and fill one absent key in the same step.
// Growing the region and keys at or above SparseBound need Set and
// Delete; after a Set, call Flat again, because it may have grown.
func (t *Table[V]) Flat() []V { return t.vals }

// Sparse returns the map that holds the keys at or above SparseBound,
// nil while there are none, for a caller that visits every key: Flat
// and Sparse together hold them all. Write through Set and Delete; a
// Set that overwrites a present key may run while ranging over it.
func (t *Table[V]) Sparse() map[uint64]V { return t.sparse }

// Bitset is a flat bit-vector over dense uint64 keys, for boolean page
// state (touched, promoted, populated) that was previously map[uint64]bool.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset creates a bitset; sizeHint pre-allocates for keys [0, sizeHint).
func NewBitset(sizeHint int) *Bitset {
	b := &Bitset{}
	if sizeHint > 0 {
		b.words = make([]uint64, (sizeHint+63)/64)
	}
	return b
}

// Contains reports whether k is set.
func (b *Bitset) Contains(k uint64) bool {
	w := k >> 6
	return w < uint64(len(b.words)) && b.words[w]&(1<<(k&63)) != 0
}

// Add sets bit k, reporting whether it was newly set.
func (b *Bitset) Add(k uint64) bool {
	w := k >> 6
	if w >= uint64(len(b.words)) {
		newLen := uint64(len(b.words))*2 + 1
		if newLen <= w {
			newLen = w + 1
		}
		words := make([]uint64, newLen)
		copy(words, b.words)
		b.words = words
	}
	mask := uint64(1) << (k & 63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.n++
	return true
}

// Remove clears bit k, reporting whether it was set.
func (b *Bitset) Remove(k uint64) bool {
	w := k >> 6
	if w >= uint64(len(b.words)) {
		return false
	}
	mask := uint64(1) << (k & 63)
	if b.words[w]&mask == 0 {
		return false
	}
	b.words[w] &^= mask
	b.n--
	return true
}

// Len returns the number of set bits.
func (b *Bitset) Len() int { return b.n }
