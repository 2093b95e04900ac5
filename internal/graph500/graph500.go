// Package graph500 is the Figure 1c substrate: a from-scratch
// implementation of the graph500 benchmark's kernels — Kronecker (R-MAT)
// graph generation and breadth-first search — instrumented to emit the
// virtual-page access trace that the paper's authors recorded from a real
// graph500 run.
//
// Substitution note (see DESIGN.md §5): the paper replays a recorded 5
// M-access trace from a 64 GiB machine under memory pressure. We do not
// have that trace, so we reproduce the process that made it: build an
// R-MAT graph with the graph500 reference parameters (A=0.57, B=0.19,
// C=0.19, D=0.05, edgefactor 16), lay its CSR representation out in a
// simulated virtual address space, and run BFS recording every page
// touched (offset reads, edge scans, visited-bitmap updates, frontier
// queue traffic). The result has the same character: a small hot region
// (frontier + offsets for high-degree vertices) plus massive irregular
// cold traffic over the edge array.
package graph500

import (
	"context"
	"fmt"

	"addrxlat/internal/hashutil"
	"addrxlat/internal/parallel"
)

// Reference R-MAT parameters from the graph500 specification.
const (
	ParamA = 0.57
	ParamB = 0.19
	ParamC = 0.19
	// ParamD = 1 − A − B − C = 0.05
)

// Config describes the graph to generate.
type Config struct {
	// Scale: log₂ of the vertex count (graph500 terminology).
	Scale int
	// EdgeFactor: edges per vertex (the spec default is 16).
	EdgeFactor int
	// Seed drives generation.
	Seed uint64
	// Workers is how many goroutines draw the R-MAT edges, in as many
	// contiguous blocks; 0 or 1 draws them on the caller's goroutine.
	// The graph is the same at any value.
	Workers int
}

func (c *Config) validate() error {
	if c.Scale < 1 || c.Scale > 30 {
		return fmt.Errorf("graph500: scale %d outside [1,30]", c.Scale)
	}
	if c.EdgeFactor <= 0 {
		c.EdgeFactor = 16
	}
	return nil
}

// Graph is a CSR-form undirected graph.
type Graph struct {
	NumVertices uint64
	NumEdges    uint64 // directed edge slots in the CSR (2× undirected)
	Offsets     []uint64
	Targets     []uint32
}

// Generate builds an R-MAT graph in CSR form. Each undirected edge is
// inserted in both directions; self-loops and duplicate edges are kept, as
// in the reference generator (kernel 1 tolerates them). Every adjacency
// list is sorted, for a deterministic traversal order (the reference
// implementation's validator also sorts), by construction rather than by
// a comparison sort: a first counting pass scatters each edge's two slots
// into an unsorted CSR; a second scans the sources w in ascending order
// and appends w to each of w's neighbours' lists. Because every edge is
// stored in both directions, x appears in w's list exactly as often as w
// in x's, so the second pass rebuilds the same lists, each in order.
//
// The edges are drawn first, in cfg.Workers contiguous blocks at once:
// edge e takes draws e·scale+1 … e·scale+scale of the seed's stream, and
// the stream is counter-based, so each block starts its own RNG at its
// first edge with RNG.Skip and writes only its own range of the endpoint
// buffer. One serial pass then counts the degrees, and the two CSR passes
// stay serial.
func Generate(cfg Config) (*Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := uint64(1) << uint(cfg.Scale)
	m := n * uint64(cfg.EdgeFactor)

	// buf holds the m edges' endpoints (u, v) in draw order, then, after
	// the first pass has read them, the sorted lists: it becomes Targets.
	buf := make([]uint32, 2*m)
	if err := drawEdges(buf, cfg); err != nil {
		return nil, err
	}
	offsets := make([]uint64, n+1)
	for _, u := range buf {
		offsets[u+1]++
	}
	for i := uint64(1); i <= n; i++ {
		offsets[i] += offsets[i-1]
	}

	// Pass 1: the unsorted CSR, each list in edge order.
	unsorted := make([]uint32, 2*m)
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	for e := 0; e < len(buf); e += 2 {
		u, v := buf[e], buf[e+1]
		unsorted[cursor[u]] = v
		cursor[u]++
		unsorted[cursor[v]] = u
		cursor[v]++
	}

	// Pass 2: the sorted CSR, into buf.
	copy(cursor, offsets[:n])
	for w := uint64(0); w < n; w++ {
		for _, x := range unsorted[offsets[w]:offsets[w+1]] {
			buf[cursor[x]] = uint32(w)
			cursor[x]++
		}
	}
	return &Graph{
		NumVertices: n,
		NumEdges:    uint64(len(buf)),
		Offsets:     offsets,
		Targets:     buf,
	}, nil
}

// drawEdges fills buf with the R-MAT edges' endpoint pairs in edge
// order, drawing cfg.Workers contiguous blocks of edges at once.
func drawEdges(buf []uint32, cfg Config) error {
	m := uint64(len(buf) / 2)
	scale := uint64(cfg.Scale)
	block := func(lo, hi uint64) {
		rng := *hashutil.NewRNG(cfg.Seed)
		rng.Skip(lo * scale)
		for e := lo; e < hi; e++ {
			buf[2*e], buf[2*e+1], rng = rmatEdge(rng, cfg.Scale)
		}
	}
	w := uint64(max(cfg.Workers, 1))
	if w == 1 {
		block(0, m)
		return nil
	}
	return parallel.ForEach(context.Background(), int(w), int(w), func(b int) error {
		block(m*uint64(b)/w, m*uint64(b+1)/w)
		return nil
	})
}

// rmatBelow holds the R-MAT thresholds A, A+B and A+B+C as integers: a
// level's draw Float64() reaches threshold t exactly when its 53 bits,
// Uint64()>>11, reach hashutil.Float64Below(t).
var rmatBelow = [3]uint64{
	hashutil.Float64Below(ParamA),
	hashutil.Float64Below(ParamA + ParamB),
	hashutil.Float64Below(ParamA + ParamB + ParamC),
}

// rmatEdge draws one edge by recursive quadrant descent from rng and
// returns rng after its draws; taking and returning the generator by
// value keeps its state in a register across a block of edges. Level
// bit's quadrant q counts the thresholds its draw reaches (rmatQuadrant),
// so u's bit is q>>1 and v's is q&1, with no branch on the draw.
func rmatEdge(rng hashutil.RNG, scale int) (u, v uint32, next hashutil.RNG) {
	for bit := 0; bit < scale; bit++ {
		var r uint64
		r, rng = rng.Next()
		q := rmatQuadrant(r >> 11)
		u |= q >> 1 << uint(bit)
		v |= q & 1 << uint(bit)
	}
	return u, v, rng
}

// rmatQuadrant is the quadrant of a level whose draw has the 53 bits j:
// 0 below A (top-left, no bit set), 1 below A+B (v's bit), 2 below
// A+B+C (u's bit), 3 otherwise (both bits).
func rmatQuadrant(j uint64) uint32 {
	return atLeast(j, rmatBelow[0]) + atLeast(j, rmatBelow[1]) + atLeast(j, rmatBelow[2])
}

// atLeast is 1 if j ≥ k and 0 otherwise; the compiler lowers it to a
// flag-setting compare with no branch.
func atLeast(j, k uint64) uint32 {
	if j >= k {
		return 1
	}
	return 0
}

// Degree returns vertex v's degree.
func (g *Graph) Degree(v uint64) uint64 {
	return g.Offsets[v+1] - g.Offsets[v]
}

// BFS runs a standard queue-based breadth-first search from root,
// returning the parent array (-1 for unreached, root's parent is itself).
// This is the uninstrumented kernel used for correctness checks.
func (g *Graph) BFS(root uint64) []int64 {
	if root >= g.NumVertices {
		panic(fmt.Sprintf("graph500: root %d out of range", root))
	}
	parent := make([]int64, g.NumVertices)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = int64(root)
	queue := []uint32{uint32(root)}
	for len(queue) > 0 {
		u := uint64(queue[0])
		queue = queue[1:]
		for _, w := range g.Targets[g.Offsets[u]:g.Offsets[u+1]] {
			if parent[w] == -1 {
				parent[w] = int64(u)
				queue = append(queue, w)
			}
		}
	}
	return parent
}

// Validate checks a parent array the way graph500's kernel 2 validator
// does (tree edges must exist; root self-parented); it returns an error
// describing the first violation.
func (g *Graph) Validate(root uint64, parent []int64) error {
	if uint64(len(parent)) != g.NumVertices {
		return fmt.Errorf("graph500: parent array has %d entries, want %d", len(parent), g.NumVertices)
	}
	if parent[root] != int64(root) {
		return fmt.Errorf("graph500: root %d not self-parented", root)
	}
	for v := uint64(0); v < g.NumVertices; v++ {
		p := parent[v]
		if p < 0 || v == root {
			continue
		}
		// Edge (p, v) must exist.
		found := false
		for _, w := range g.Targets[g.Offsets[p]:g.Offsets[p+1]] {
			if uint64(w) == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("graph500: tree edge (%d,%d) not in graph", p, v)
		}
	}
	return nil
}

// Reached counts vertices reached by a BFS parent array.
func Reached(parent []int64) uint64 {
	var n uint64
	for _, p := range parent {
		if p >= 0 {
			n++
		}
	}
	return n
}
