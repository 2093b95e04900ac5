package policy

import (
	"slices"
	"testing"

	"addrxlat/internal/dense"
	"addrxlat/internal/hashutil"
)

// recencyOrder walks r's list from the most recent key to the least,
// returning each key with its zone flags, and checks that the slot table
// maps every listed key to its slot.
func recencyOrder(t *testing.T, r *RecencyStack) (keys []uint64, flags []uint32) {
	t.Helper()
	h := int32(r.capMax)
	for s := r.nodes[h].next; s != h; s = r.nodes[s].next {
		key := r.keys[s]
		if got := r.slot.At(key); got != s {
			t.Fatalf("key %d sits in slot %d, slot table says %d", key, s, got)
		}
		keys = append(keys, key)
		flags = append(flags, r.nodes[s].flags)
		if len(keys) > r.capMax {
			t.Fatalf("list longer than its capacity %d", r.capMax)
		}
	}
	return keys, flags
}

// stampTwin warms one stack with Stamp and a twin with per-request
// Access over the same window, cut into chunks of the given lengths and
// then one chunk for the rest; a chunk Stamp declines is accessed, as
// mm.HugePage.Warm does. The first reads after the window must agree on
// Zone1Len, Zone2Len and Distinct; then the recency lists, zone flags
// and tombstones must be equal, and over the continuation, in chunks of
// the given lengths, every chunk's misses, through AccessShifted on
// even chunks and per-request Access on odd ones.
func stampTwin(t *testing.T, cap1, cap2, maxStamps int, shift uint, warm []uint64, cuts []int, cont []uint64, contCuts []int) {
	t.Helper()
	st := NewRecencyStack(cap1, cap2, 0)
	st.maxStamps = int32(maxStamps)
	ref := NewRecencyStack(cap1, cap2, 0)
	lo, stamped := 0, 0
	for c := 0; c <= len(cuts); c++ {
		hi := len(warm)
		if c < len(cuts) {
			hi = min(lo+cuts[c], len(warm))
		}
		chunk := warm[lo:hi]
		if st.Stamp(chunk, shift) {
			stamped++
		} else {
			st.AccessShifted(chunk, shift)
		}
		for _, v := range chunk {
			ref.Access(v >> shift)
		}
		lo = hi
	}
	if maxStamps >= len(warm) && stamped != len(cuts)+1 {
		t.Fatalf("caps (%d,%d): Stamp declined %d of %d chunks of an unread stack", cap1, cap2, len(cuts)+1-stamped, len(cuts)+1)
	}
	if g, w := st.Zone1Len(), ref.Zone1Len(); g != w {
		t.Fatalf("caps (%d,%d): Zone1Len stamped %d, accessed %d", cap1, cap2, g, w)
	}
	if g, w := st.Zone2Len(), ref.Zone2Len(); g != w {
		t.Fatalf("caps (%d,%d): Zone2Len stamped %d, accessed %d", cap1, cap2, g, w)
	}
	if g, w := st.Distinct(), ref.Distinct(); g != w {
		t.Fatalf("caps (%d,%d): Distinct stamped %d, accessed %d", cap1, cap2, g, w)
	}
	if len(warm) > 0 && st.Stamp(warm[:1], shift) {
		t.Fatalf("caps (%d,%d): Stamp stamped a stack that was read", cap1, cap2)
	}
	gk, gf := recencyOrder(t, st)
	wk, wf := recencyOrder(t, ref)
	if !slices.Equal(gk, wk) || !slices.Equal(gf, wf) {
		t.Fatalf("caps (%d,%d): stamped list %v flags %v, accessed %v flags %v", cap1, cap2, gk, gf, wk, wf)
	}
	for _, v := range warm {
		if g, w := st.slot.At(v>>shift) >= 0, ref.slot.At(v>>shift) >= 0; g != w {
			t.Fatalf("caps (%d,%d): key %d listed %v stamped, %v accessed", cap1, cap2, v>>shift, g, w)
		}
	}

	lo = 0
	for c := 0; c <= len(contCuts); c++ {
		hi := len(cont)
		if c < len(contCuts) {
			hi = min(lo+contCuts[c], len(cont))
		}
		chunk := cont[lo:hi]
		var g1, g2, w1, w2 uint64
		if c%2 == 0 {
			g1, g2 = st.AccessShifted(chunk, shift)
			w1, w2 = ref.AccessShifted(chunk, shift)
		} else {
			for _, v := range chunk {
				if h1, h2 := st.Access(v >> shift); !h1 || !h2 {
					g1, g2 = g1+b2u(!h1), g2+b2u(!h2)
				}
				if h1, h2 := ref.Access(v >> shift); !h1 || !h2 {
					w1, w2 = w1+b2u(!h1), w2+b2u(!h2)
				}
			}
		}
		if g1 != w1 || g2 != w2 {
			t.Fatalf("caps (%d,%d): continuation chunk [%d,%d): stamped misses (%d,%d), accessed (%d,%d)",
				cap1, cap2, lo, hi, g1, g2, w1, w2)
		}
		lo = hi
	}
	if st.Distinct() != ref.Distinct() || st.Zone1Len() != ref.Zone1Len() || st.Zone2Len() != ref.Zone2Len() {
		t.Fatalf("caps (%d,%d): after the continuation stamped (%d,%d,%d), accessed (%d,%d,%d)", cap1, cap2,
			st.Zone1Len(), st.Zone2Len(), st.Distinct(), ref.Zone1Len(), ref.Zone2Len(), ref.Distinct())
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// stampStream draws n requests over keyRange keys, shifted by shift with
// random low bits: runs of one key, a hot eighth, a cold rest, and every
// sparseEvery-th request (0: none) a key at or above dense.SparseBound.
func stampStream(rng *hashutil.RNG, n int, keyRange uint64, shift uint, sparseEvery int) []uint64 {
	vs := make([]uint64, n)
	var key uint64
	for i := range vs {
		switch p := rng.Uint64n(10); {
		case i > 0 && p < 3:
		case p < 8:
			key = rng.Uint64n(keyRange/8 + 1)
		default:
			key = rng.Uint64n(keyRange)
		}
		if sparseEvery > 0 && i%sparseEvery == sparseEvery-1 {
			key = dense.SparseBound + rng.Uint64n(keyRange/4+1)
		}
		vs[i] = key<<shift | rng.Uint64n(1<<shift)
	}
	return vs
}

// TestRecencyStackStampMatchesAccess is Stamp's oracle: a stack warmed
// by Stamp must equal a twin warmed by Access (stampTwin), over random
// zone capacities (cap1 = 1, cap1 > cap2, cap1 < cap2 and equal), keys
// below and at or above dense.SparseBound, warm windows with fewer and
// with more distinct keys than capMax, and a stamp budget that runs out
// mid-window, where Stamp settles and the rest of the window is
// accessed.
func TestRecencyStackStampMatchesAccess(t *testing.T) {
	rng := hashutil.NewRNG(29)
	for trial := range 240 {
		capA := 1 + int(rng.Uint64n(64))
		capB := 1 + int(rng.Uint64n(64))
		var cap1, cap2 int
		switch trial % 4 {
		case 0:
			cap1, cap2 = 1, capB
		case 1:
			cap1, cap2 = max(capA, capB)+1, min(capA, capB)
		case 2:
			cap1, cap2 = min(capA, capB), max(capA, capB)+1
		default:
			cap1, cap2 = capA, capA
		}
		capMax := max(cap1, cap2)
		// Key ranges from a fraction of capMax (every key fits) to many
		// times it (the select must drop the oldest).
		keyRange := uint64(1 + rng.Uint64n(uint64(4*capMax)))
		if trial%3 == 0 {
			keyRange = uint64(capMax/2 + 1)
		}
		shift := uint(rng.Uint64n(5))
		sparseEvery := []int{0, 7, 50}[trial%3]
		n := int(rng.Uint64n(3000))
		warm := stampStream(rng, n, keyRange, shift, sparseEvery)
		cont := stampStream(rng, 2000, keyRange, shift, sparseEvery)
		cuts := make([]int, rng.Uint64n(12))
		for i := range cuts {
			cuts[i] = int(rng.Uint64n(600))
		}
		contCuts := make([]int, 8)
		for i := range contCuts {
			contCuts[i] = int(rng.Uint64n(400))
		}
		maxStamps := 1 << 30
		if trial%5 == 4 {
			maxStamps = int(rng.Uint64n(uint64(n) + 1))
		}
		stampTwin(t, cap1, cap2, maxStamps, shift, warm, cuts, cont, contCuts)
	}
}

// TestRecencyStackStampWideStamps drives the select through all three of
// its digits: a window whose stamps need more than 2·rsDigit bits, over
// more keys than capMax, settles to the accessed twin's state.
func TestRecencyStackStampWideStamps(t *testing.T) {
	if testing.Short() {
		t.Skip("4.2M-request window")
	}
	rng := hashutil.NewRNG(7)
	n := 1<<(2*rsDigit) + 1<<20
	warm := make([]uint64, n)
	for i := range warm {
		warm[i] = rng.Uint64n(50_000)
		if i%1000 == 999 {
			warm[i] = dense.SparseBound + rng.Uint64n(300)
		}
	}
	cont := stampStream(rng, 20000, 50_000, 0, 100)
	stampTwin(t, 300, 9000, 1<<30, 0, warm, []int{n / 3, 1, n / 2}, cont, []int{5000, 5000})
}

// FuzzRecencyStackStamp runs stampTwin's oracle over fuzzed capacities,
// windows and chunkings. Each stream byte is one request: below 0xc0 one
// of 40 keys, up to 0xe0 a key up to 31<<10 that grows the slot table,
// above that a key at or above dense.SparseBound; the low shift bits vary
// from request to request. The window is the stream's first split bytes,
// the continuation the rest; each chunking byte is one chunk's length, 0
// to 31. budget bounds the stamps, so a window can run out of them.
func FuzzRecencyStackStamp(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(0), uint16(9), uint16(1000), []byte{1, 1, 2, 3, 0xc1, 4, 0xe2, 5, 1, 2, 9, 9, 3}, []byte{2, 0, 5})
	f.Add(uint8(0), uint8(7), uint8(2), uint16(30), uint16(1000), []byte{5, 5, 6, 7, 8, 0xdf, 5, 9, 0xe0, 0xff, 6, 6, 0xc4, 10, 11, 5, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 5, 6}, []byte{1, 2, 16, 0, 4})
	f.Add(uint8(6), uint8(6), uint8(1), uint16(12), uint16(4), []byte{0, 0xc0, 0xc0, 0xe5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xe5, 0, 3, 2}, []byte{})
	f.Fuzz(func(t *testing.T, cap1, cap2, shift uint8, split, budget uint16, stream, chunking []byte) {
		sh := uint(shift % 5)
		vs := make([]uint64, len(stream))
		for i, b := range stream {
			var key uint64
			switch {
			case b < 0xc0:
				key = uint64(b % 40)
			case b < 0xe0:
				key = uint64(b&0x1f) << 10
			default:
				key = dense.SparseBound + uint64(b&0x1f)
			}
			vs[i] = key<<sh | uint64(i)&(1<<sh-1)
		}
		cut := min(int(split), len(vs))
		cuts := make([]int, len(chunking))
		for i, b := range chunking {
			cuts[i] = int(b % 32)
		}
		stampTwin(t, int(cap1%16)+1, int(cap2%16)+1, int(budget), sh, vs[:cut], cuts, vs[cut:], cuts)
	})
}
