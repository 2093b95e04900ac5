package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"addrxlat/internal/bitpack"
	"addrxlat/internal/hashutil"
)

// churnModel drives a Scheme through page-in/page-out toggles and checks
// the encoder against the allocator after every step.
type churnModel struct {
	s      *Scheme
	p      Params
	active map[uint64]bool   // A, failed pages included
	perHP  map[uint64]uint16 // allocator-resident pages per huge page
}

func newChurnModel(s *Scheme) *churnModel {
	return &churnModel{s: s, p: s.Params(), active: map[uint64]bool{}, perHP: map[uint64]uint16{}}
}

// toggle pages v out if it is in A, and in otherwise (when there is room).
// A failed page-in stays in A, in F.
func (m *churnModel) toggle(v uint64) {
	u := m.p.HugePage(v)
	if m.active[v] {
		if !m.s.IsFailed(v) {
			m.perHP[u]--
		}
		m.s.PageOut(v)
		delete(m.active, v)
		return
	}
	if m.s.Resident() >= m.p.MaxResident {
		return
	}
	if m.s.PageIn(v) {
		m.perHP[u]++
	}
	m.active[v] = true
}

// codeOf returns the code the allocator assigned v, if v holds a location.
func codeOf(a Allocator, v uint64) (uint64, bool) {
	switch a := a.(type) {
	case *FullAllocator:
		return a.PhysOf(v)
	case *BucketAllocator:
		c, ok := a.slots.Get(v)
		return uint64(c), ok
	case *IcebergAllocator:
		c, ok := a.where.Get(v)
		return uint64(c), ok
	}
	panic(fmt.Sprintf("codeOf: unknown allocator %T", a))
}

// check verifies huge page u: every page decodes (live and from a
// snapshot) to φ(v) when it holds a location and to NullAddress
// otherwise, ψ(u) is bit for bit a FieldArray holding the same codes, and
// the resident counts agree with the model.
func (m *churnModel) check(u uint64) error {
	p, s := m.p, m.s
	want := bitpack.NewFieldArray(p.HMax, p.BitsPerPage)
	want.Fill(p.AbsentCode())
	snap := s.Snapshot(u)
	for i := 0; i < p.HMax; i++ {
		v := u*uint64(p.HMax) + uint64(i)
		got, gotSnap := s.Lookup(v), s.LookupIn(v, snap)
		if got != gotSnap {
			return fmt.Errorf("page %d: live decode %d, snapshot decode %d", v, got, gotSnap)
		}
		phys, ok := s.Allocator().PhysOf(v)
		switch {
		case ok && got != phys:
			return fmt.Errorf("page %d: f(v, ψ) = %d, want φ(v) = %d", v, got, phys)
		case !ok && got != NullAddress:
			return fmt.Errorf("page %d: f(v, ψ) = %d, want NullAddress", v, got)
		case ok && (!m.active[v] || s.IsFailed(v)):
			return fmt.Errorf("page %d holds a location but is not resident", v)
		}
		if code, ok := codeOf(s.Allocator(), v); ok {
			want.Set(i, code)
		}
	}
	if !slices.Equal(s.Value(u), want.Words()) {
		return fmt.Errorf("ψ(%d) = %x, want the FieldArray layout %x", u, s.Value(u), want.Words())
	}
	if got := s.Encoder().ResidentInHugePage(u); got != int(m.perHP[u]) {
		return fmt.Errorf("ResidentInHugePage(%d) = %d, want %d", u, got, m.perHP[u])
	}
	encoded := 0
	for _, n := range m.perHP {
		if n > 0 {
			encoded++
		}
	}
	if got := s.Encoder().EncodedHugePages(); got != encoded {
		return fmt.Errorf("EncodedHugePages = %d, want %d", got, encoded)
	}
	return nil
}

// TestDecodeAcrossWidths churns a few huge pages — the first three and
// the last — for every allocator kind at value widths from 8 to 4096
// bits, checking every page of the touched huge page after each step. At
// w > 64 a value spans several words and fields straddle word boundaries.
func TestDecodeAcrossWidths(t *testing.T) {
	for _, kind := range []AllocKind{FullyAssociative, SingleChoice, IcebergAlloc} {
		for _, w := range []int{8, 64, 100, 128, 4096} {
			P := uint64(1 << 16)
			if kind == FullyAssociative && w == 8 {
				P = 1 << 7 // 8-bit codes: frames 0..127 plus the sentinel
			}
			t.Run(fmt.Sprintf("%s/w=%d", kind, w), func(t *testing.T) {
				p, err := DeriveParams(kind, P, 4*P, w)
				if err != nil {
					t.Fatal(err)
				}
				if kind == IcebergAlloc && w == 128 && (p.HMax != 16 || p.BitsPerPage != 7) {
					t.Fatalf("iceberg w=128: hmax=%d b=%d, want 16 and 7 (field 9 spans bits 63–69)",
						p.HMax, p.BitsPerPage)
				}
				s, err := NewScheme(p, 11)
				if err != nil {
					t.Fatal(err)
				}
				m := newChurnModel(s)
				last := (p.V - 1) / uint64(p.HMax)
				hps := []uint64{0, 1, 2, last}
				rng := hashutil.NewRNG(uint64(w))
				for step := 0; step < 3000; step++ {
					u := hps[rng.Intn(len(hps))]
					v := u*uint64(p.HMax) + rng.Uint64n(uint64(p.HMax))
					m.toggle(v)
					if err := m.check(u); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			})
		}
	}
}

// TestPageInOutsideVirtualSpace: PageIn rejects v ≥ V with a message
// naming v and V, before touching any state.
func TestPageInOutsideVirtualSpace(t *testing.T) {
	p, err := DeriveParams(IcebergAlloc, 1<<12, 1<<14, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.PageIn(p.V - 1) {
		t.Fatal("PageIn(V-1) failed")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprint(p.V)) || !strings.Contains(msg, fmt.Sprint(p.V+5)) {
			t.Fatalf("PageIn(V+5) panic = %q, want a message naming v=%d and V=%d", msg, p.V+5, p.V)
		}
		if s.PageIns() != 1 || s.Resident() != 1 {
			t.Fatalf("rejected PageIn changed state: PageIns=%d Resident=%d", s.PageIns(), s.Resident())
		}
	}()
	s.PageIn(p.V + 5)
}

// FuzzEncoderDecode draws a scheme (kind, P, w, V) and a page-in/page-out
// script over the first two huge pages and the last one, and checks the
// touched huge page after every operation.
func FuzzEncoderDecode(f *testing.F) {
	f.Add(uint8(2), uint8(10), uint16(127), uint8(0), []byte{1, 9, 1, 9, 0, 3, 2, 15})
	f.Add(uint8(0), uint8(4), uint16(99), uint8(3), []byte{0, 1, 0, 2, 2, 0, 1, 1})
	f.Add(uint8(1), uint8(8), uint16(4095), uint8(7), []byte{2, 200, 2, 7, 0, 0})
	f.Fuzz(func(t *testing.T, kindSel, logP uint8, wSel uint16, vExtra uint8, script []byte) {
		kind := []AllocKind{FullyAssociative, SingleChoice, IcebergAlloc}[kindSel%3]
		P := uint64(1) << (6 + logP%9)
		w := 1 + int(wSel%4096)
		p, err := DeriveParams(kind, P, 2*P+uint64(vExtra), w)
		if err != nil {
			return // w too narrow for one code of this kind
		}
		s, err := NewScheme(p, uint64(logP)*7+uint64(kindSel))
		if err != nil {
			t.Fatal(err)
		}
		m := newChurnModel(s)
		hps := []uint64{0, 1, (p.V - 1) / uint64(p.HMax)}
		for i := 0; i+1 < len(script); i += 2 {
			u := hps[int(script[i])%len(hps)]
			v := u*uint64(p.HMax) + uint64(script[i+1])%uint64(p.HMax)
			if v >= p.V {
				v = p.V - 1 // V may hold fewer than three huge pages
			}
			m.toggle(v)
			if err := m.check(p.HugePage(v)); err != nil {
				t.Fatalf("%s: op %d: %v", p, i/2, err)
			}
		}
	})
}
