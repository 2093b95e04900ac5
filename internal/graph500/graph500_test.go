package graph500

import (
	"fmt"
	"sort"
	"testing"

	"addrxlat/internal/hashutil"
)

// referenceGenerate is the oracle for Generate's counting-pass build: the
// same R-MAT draws taken with a branch per level, scattered into an
// unsorted CSR, and each adjacency list then sorted with sort.Slice.
func referenceGenerate(cfg Config) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := uint64(1) << uint(cfg.Scale)
	m := n * uint64(cfg.EdgeFactor)
	rng := hashutil.NewRNG(cfg.Seed)

	srcs := make([]uint32, 0, 2*m)
	dsts := make([]uint32, 0, 2*m)
	for e := uint64(0); e < m; e++ {
		u, v := referenceRMATEdge(rng, cfg.Scale)
		srcs = append(srcs, u, v)
		dsts = append(dsts, v, u)
	}

	// Counting sort into CSR.
	offsets := make([]uint64, n+1)
	for _, u := range srcs {
		offsets[u+1]++
	}
	for i := uint64(1); i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]uint32, len(srcs))
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	for i, u := range srcs {
		targets[cursor[u]] = dsts[i]
		cursor[u]++
	}
	// Sort adjacency lists for deterministic traversal order (the
	// reference implementation's validator also sorts).
	for v := uint64(0); v < n; v++ {
		seg := targets[offsets[v]:offsets[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return &Graph{
		NumVertices: n,
		NumEdges:    uint64(len(targets)),
		Offsets:     offsets,
		Targets:     targets,
	}, nil
}

// referenceRMATEdge draws one edge by recursive quadrant descent.
func referenceRMATEdge(rng *hashutil.RNG, scale int) (uint32, uint32) {
	var u, v uint32
	for bit := 0; bit < scale; bit++ {
		r := rng.Float64()
		switch {
		case r < ParamA:
			// top-left: no bits set
		case r < ParamA+ParamB:
			v |= 1 << uint(bit)
		case r < ParamA+ParamB+ParamC:
			u |= 1 << uint(bit)
		default:
			u |= 1 << uint(bit)
			v |= 1 << uint(bit)
		}
	}
	return u, v
}

// TestGenerateMatchesReference pins Generate's branch-free draw and
// sort-free build to the comparison-sort reference: the same offsets and
// the same sorted targets, over scales from a 2-vertex graph up to
// Figure 1c's default (16), sparse to the spec's edge factor, three seeds.
func TestGenerateMatchesReference(t *testing.T) {
	for _, scale := range []int{1, 2, 5, 10, 12, 16} {
		for _, ef := range []int{1, 3, 16} {
			for _, seed := range []uint64{1, 7, 42} {
				cfg := Config{Scale: scale, EdgeFactor: ef, Seed: seed}
				t.Run(fmt.Sprintf("scale%d/ef%d/seed%d", scale, ef, seed), func(t *testing.T) {
					got, err := Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := referenceGenerate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got.NumVertices != want.NumVertices || got.NumEdges != want.NumEdges {
						t.Fatalf("%d vertices, %d edges; reference %d, %d",
							got.NumVertices, got.NumEdges, want.NumVertices, want.NumEdges)
					}
					for i := range want.Offsets {
						if got.Offsets[i] != want.Offsets[i] {
							t.Fatalf("Offsets[%d] = %d, reference %d", i, got.Offsets[i], want.Offsets[i])
						}
					}
					if len(got.Targets) != len(want.Targets) {
						t.Fatalf("%d targets, reference %d", len(got.Targets), len(want.Targets))
					}
					for i := range want.Targets {
						if got.Targets[i] != want.Targets[i] {
							t.Fatalf("Targets[%d] = %d, reference %d", i, got.Targets[i], want.Targets[i])
						}
					}
				})
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Generate(Config{Scale: 0}); err == nil {
		t.Error("scale 0 should error")
	}
	if _, err := Generate(Config{Scale: 31}); err == nil {
		t.Error("scale 31 should error")
	}
}

func TestGenerateShape(t *testing.T) {
	g, err := Generate(Config{Scale: 10, EdgeFactor: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices != 1024 {
		t.Fatalf("NumVertices = %d, want 1024", g.NumVertices)
	}
	if g.NumEdges != 2*1024*16 {
		t.Fatalf("NumEdges = %d, want %d (both directions)", g.NumEdges, 2*1024*16)
	}
	if len(g.Offsets) != 1025 || g.Offsets[1024] != g.NumEdges {
		t.Fatalf("CSR offsets malformed: len=%d last=%d", len(g.Offsets), g.Offsets[1024])
	}
	// Offsets must be nondecreasing and degrees must sum to edge count.
	var sum uint64
	for v := uint64(0); v < g.NumVertices; v++ {
		if g.Offsets[v+1] < g.Offsets[v] {
			t.Fatalf("offsets decrease at %d", v)
		}
		sum += g.Degree(v)
	}
	if sum != g.NumEdges {
		t.Fatalf("degree sum %d != edges %d", sum, g.NumEdges)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, _ := Generate(Config{Scale: 8, EdgeFactor: 8, Seed: 5})
	b, _ := Generate(Config{Scale: 8, EdgeFactor: 8, Seed: 5})
	if a.NumEdges != b.NumEdges {
		t.Fatal("same seed, different edge counts")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("same seed, different graphs")
		}
	}
}

func TestGraphIsSymmetric(t *testing.T) {
	g, _ := Generate(Config{Scale: 8, EdgeFactor: 4, Seed: 2})
	// Count directed edges in each direction; for every (u,v) inserted we
	// inserted (v,u), so the multiset must be symmetric.
	type edge struct{ u, v uint32 }
	counts := map[edge]int{}
	for u := uint64(0); u < g.NumVertices; u++ {
		for _, w := range g.Targets[g.Offsets[u]:g.Offsets[u+1]] {
			counts[edge{uint32(u), w}]++
		}
	}
	for e, c := range counts {
		if counts[edge{e.v, e.u}] != c {
			t.Fatalf("edge (%d,%d)×%d has no mirror", e.u, e.v, c)
		}
	}
}

func TestRMATSkew(t *testing.T) {
	// R-MAT graphs are power-law-ish: the max degree should far exceed
	// the average degree.
	g, _ := Generate(Config{Scale: 12, EdgeFactor: 16, Seed: 3})
	avg := float64(g.NumEdges) / float64(g.NumVertices)
	maxDeg := g.Degree(g.HighestDegreeVertex())
	if float64(maxDeg) < 5*avg {
		t.Fatalf("max degree %d not skewed vs average %.1f", maxDeg, avg)
	}
}

func TestBFSCorrectness(t *testing.T) {
	g, _ := Generate(Config{Scale: 9, EdgeFactor: 8, Seed: 4})
	root := g.HighestDegreeVertex()
	parent := g.BFS(root)
	if err := g.Validate(root, parent); err != nil {
		t.Fatal(err)
	}
	if Reached(parent) < g.NumVertices/2 {
		t.Fatalf("BFS from max-degree root reached only %d/%d vertices",
			Reached(parent), g.NumVertices)
	}
	// BFS distances: every non-root reached vertex's parent must have
	// been reached before it (checked implicitly by Validate); spot-check
	// level ordering via a reference BFS re-run.
	parent2 := g.BFS(root)
	for i := range parent {
		if parent[i] != parent2[i] {
			t.Fatal("BFS not deterministic")
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g, _ := Generate(Config{Scale: 8, EdgeFactor: 8, Seed: 6})
	root := g.HighestDegreeVertex()
	parent := g.BFS(root)
	// Corrupt: point a reached vertex at a non-neighbor.
	var victim uint64
	for v := uint64(0); v < g.NumVertices; v++ {
		if v != root && parent[v] >= 0 {
			victim = v
			break
		}
	}
	// Find a non-neighbor of victim's current parent... simpler: set
	// parent to a vertex with no edge to victim.
	for cand := uint64(0); cand < g.NumVertices; cand++ {
		isNeighbor := false
		for _, w := range g.Targets[g.Offsets[cand]:g.Offsets[cand+1]] {
			if uint64(w) == victim {
				isNeighbor = true
				break
			}
		}
		if !isNeighbor && cand != victim {
			parent[victim] = int64(cand)
			break
		}
	}
	if err := g.Validate(root, parent); err == nil {
		t.Fatal("validator accepted corrupted tree")
	}
	// Root not self-parented.
	parent = g.BFS(root)
	parent[root] = -1
	if err := g.Validate(root, parent); err == nil {
		t.Fatal("validator accepted bad root")
	}
}

func TestBFSTrace(t *testing.T) {
	g, _ := Generate(Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	root := g.HighestDegreeVertex()
	res, err := g.BFSTrace(root, DefaultLayout(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(root, res.Parent); err != nil {
		t.Fatalf("traced BFS produced invalid tree: %v", err)
	}
	// Untraced BFS and traced BFS must agree.
	plain := g.BFS(root)
	for i := range plain {
		if plain[i] != res.Parent[i] {
			t.Fatal("traced BFS diverges from plain BFS")
		}
	}
	// Every trace entry must be inside the footprint.
	fp := res.Footprint
	for _, page := range res.Trace {
		if page >= fp.TotalPages {
			t.Fatalf("trace page %d outside footprint %d", page, fp.TotalPages)
		}
	}
	// The trace must touch all four regions.
	regions := [4]bool{}
	for _, page := range res.Trace {
		switch {
		case page < fp.TargetsBase:
			regions[0] = true
		case page < fp.ParentBase:
			regions[1] = true
		case page < fp.QueueBase:
			regions[2] = true
		default:
			regions[3] = true
		}
	}
	for i, seen := range regions {
		if !seen {
			t.Errorf("region %d never touched by trace", i)
		}
	}
	// Trace length should be at least edges (each edge read emits ≥ 2
	// accesses when scanned).
	if uint64(len(res.Trace)) < g.NumEdges {
		t.Fatalf("trace too short: %d accesses for %d edges", len(res.Trace), g.NumEdges)
	}
}

func TestBFSTraceTruncation(t *testing.T) {
	g, _ := Generate(Config{Scale: 10, EdgeFactor: 8, Seed: 7})
	root := g.HighestDegreeVertex()
	res, err := g.BFSTrace(root, DefaultLayout(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 1000 {
		t.Fatalf("truncated trace length = %d, want 1000", len(res.Trace))
	}
	// Parent array must still be a complete, valid BFS tree.
	if err := g.Validate(root, res.Parent); err != nil {
		t.Fatalf("truncated trace broke the BFS: %v", err)
	}
	if Reached(res.Parent) != Reached(g.BFS(root)) {
		t.Fatal("truncation changed BFS reachability")
	}
}

func TestBFSTraceErrors(t *testing.T) {
	g, _ := Generate(Config{Scale: 6, EdgeFactor: 4, Seed: 1})
	if _, err := g.BFSTrace(g.NumVertices, DefaultLayout(), 0); err == nil {
		t.Error("out-of-range root should error")
	}
	bad := DefaultLayout()
	bad.PageBytes = 1000 // not a power of two
	if _, err := g.BFSTrace(0, bad, 0); err == nil {
		t.Error("bad page size should error")
	}
	bad2 := DefaultLayout()
	bad2.TargetBytes = 0
	if _, err := g.BFSTrace(0, bad2, 0); err == nil {
		t.Error("zero element size should error")
	}
}

func TestBFSPanicsOnBadRoot(t *testing.T) {
	g, _ := Generate(Config{Scale: 6, EdgeFactor: 4, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.BFS(g.NumVertices)
}

func TestFootprintLayout(t *testing.T) {
	g, _ := Generate(Config{Scale: 10, EdgeFactor: 8, Seed: 9})
	res, _ := g.BFSTrace(0, DefaultLayout(), 10)
	fp := res.Footprint
	if !(fp.OffsetsBase < fp.TargetsBase &&
		fp.TargetsBase < fp.ParentBase &&
		fp.ParentBase < fp.QueueBase &&
		fp.QueueBase < fp.TotalPages) {
		t.Fatalf("regions out of order: %+v", fp)
	}
	// Edge array should dominate the footprint for edgefactor 8 with
	// 4-byte targets vs 8-byte offsets: edges = 2*8*n*4 bytes = 64n vs
	// offsets 8n.
	tgtPages := fp.ParentBase - fp.TargetsBase
	offPages := fp.TargetsBase - fp.OffsetsBase
	if tgtPages <= offPages {
		t.Fatalf("targets (%d pages) should dominate offsets (%d pages)", tgtPages, offPages)
	}
}

// BenchmarkGenerateScale16 builds Figure 1c's graph at its default scale.
func BenchmarkGenerateScale16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Generate(Config{Scale: 16, EdgeFactor: 16, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFSTrace(b *testing.B) {
	g, _ := Generate(Config{Scale: 14, EdgeFactor: 16, Seed: 1})
	root := g.HighestDegreeVertex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.BFSTrace(root, DefaultLayout(), 0); err != nil {
			b.Fatal(err)
		}
	}
}
