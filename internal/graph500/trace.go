package graph500

import "fmt"

// Layout maps the BFS working data onto a simulated virtual address space,
// mirroring how a real graph500 process lays out its arrays. All fields
// are in base pages of PageBytes bytes.
type Layout struct {
	// PageBytes is the base page size (the paper uses 4 KiB).
	PageBytes uint64
	// Element sizes in bytes, matching the reference implementation's
	// int64 offsets/parents and packed vertex ids.
	OffsetBytes uint64 // per offsets[] entry
	TargetBytes uint64 // per targets[] entry
	ParentBytes uint64 // per parent[] entry
	QueueBytes  uint64 // per frontier-queue entry
}

// DefaultLayout matches a 64-bit graph500 build on 4 KiB pages.
func DefaultLayout() Layout {
	return Layout{
		PageBytes:   4096,
		OffsetBytes: 8,
		TargetBytes: 4,
		ParentBytes: 8,
		QueueBytes:  4,
	}
}

func (l *Layout) validate() error {
	if l.PageBytes == 0 || l.PageBytes&(l.PageBytes-1) != 0 {
		return fmt.Errorf("graph500: page size %d must be a power of two", l.PageBytes)
	}
	for _, sz := range []uint64{l.OffsetBytes, l.TargetBytes, l.ParentBytes, l.QueueBytes} {
		if sz == 0 {
			return fmt.Errorf("graph500: element sizes must be positive")
		}
	}
	return nil
}

// Footprint describes the virtual regions of a traced BFS.
type Footprint struct {
	OffsetsBase uint64 // first page of offsets[]
	TargetsBase uint64 // first page of targets[]
	ParentBase  uint64 // first page of parent[]
	QueueBase   uint64 // first page of the frontier queue
	TotalPages  uint64 // pages spanned by all regions
}

// TraceResult is an instrumented BFS run.
type TraceResult struct {
	Trace     []uint64 // virtual page per memory access, in order
	Parent    []int64  // BFS output, for validation
	Footprint Footprint
}

// BFSTrace runs BFS from root and records the virtual page of every memory
// access the kernel performs: offset reads (two per scanned vertex), edge
// reads, parent checks and writes, and frontier enqueues/dequeues. maxLen
// truncates the trace (0 = unlimited); truncation models the paper's
// "period of high memory pressure" excerpt of a longer run.
func (g *Graph) BFSTrace(root uint64, layout Layout, maxLen int) (*TraceResult, error) {
	if err := layout.validate(); err != nil {
		return nil, err
	}
	if root >= g.NumVertices {
		return nil, fmt.Errorf("graph500: root %d out of range [0,%d)", root, g.NumVertices)
	}

	pagesFor := func(count, elemBytes uint64) uint64 {
		return (count*elemBytes + layout.PageBytes - 1) / layout.PageBytes
	}
	fp := Footprint{}
	fp.OffsetsBase = 0
	offPages := pagesFor(g.NumVertices+1, layout.OffsetBytes)
	fp.TargetsBase = fp.OffsetsBase + offPages
	tgtPages := pagesFor(g.NumEdges, layout.TargetBytes)
	fp.ParentBase = fp.TargetsBase + tgtPages
	parPages := pagesFor(g.NumVertices, layout.ParentBytes)
	fp.QueueBase = fp.ParentBase + parPages
	quePages := pagesFor(g.NumVertices, layout.QueueBytes)
	fp.TotalPages = offPages + tgtPages + parPages + quePages

	perPage := func(base, index, elemBytes uint64) uint64 {
		return base + index*elemBytes/layout.PageBytes
	}

	// A full BFS emits at most 5V + 2E pages: the root's parent write and
	// enqueue, then per dequeued vertex (at most V) one dequeue and two
	// offset reads, per scanned edge (at most E) a target read and a
	// parent check, and per discovered vertex (at most V−1) a parent write
	// and an enqueue. Sizing the trace at min(maxLen, that bound) up front
	// spares append's regrowth copies.
	size := 5*g.NumVertices + 2*g.NumEdges
	if maxLen > 0 && uint64(maxLen) < size {
		size = uint64(maxLen)
	}
	trace := make([]uint64, 0, size)
	truncated := false
	emit := func(page uint64) {
		if maxLen > 0 && len(trace) >= maxLen {
			truncated = true
			return
		}
		trace = append(trace, page)
	}

	parent := make([]int64, g.NumVertices)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = int64(root)
	emit(perPage(fp.ParentBase, root, layout.ParentBytes))

	queue := make([]uint32, 1, g.NumVertices) // every vertex is enqueued at most once
	queue[0] = uint32(root)
	emit(perPage(fp.QueueBase, 0, layout.QueueBytes))
	head := uint64(0)
	tail := uint64(1)

	for head < tail && !truncated {
		u := uint64(queue[head])
		emit(perPage(fp.QueueBase, head, layout.QueueBytes))
		head++
		// Read offsets[u] and offsets[u+1].
		emit(perPage(fp.OffsetsBase, u, layout.OffsetBytes))
		emit(perPage(fp.OffsetsBase, u+1, layout.OffsetBytes))
		for i := g.Offsets[u]; i < g.Offsets[u+1]; i++ {
			emit(perPage(fp.TargetsBase, i, layout.TargetBytes))
			w := uint64(g.Targets[i])
			emit(perPage(fp.ParentBase, w, layout.ParentBytes))
			if parent[w] == -1 {
				parent[w] = int64(u)
				emit(perPage(fp.ParentBase, w, layout.ParentBytes)) // write
				queue = append(queue, uint32(w))
				emit(perPage(fp.QueueBase, tail, layout.QueueBytes))
				tail++
			}
			// On truncation, keep scanning u's remaining edges (emits
			// become no-ops) so no tree edges are lost; the outer loop
			// then exits and the rest of the BFS finishes untraced.
		}
	}
	// If truncated mid-search, finish the BFS untraced so Parent stays a
	// valid tree for Validate.
	for head < tail {
		u := uint64(queue[head])
		head++
		for _, w := range g.Targets[g.Offsets[u]:g.Offsets[u+1]] {
			if parent[w] == -1 {
				parent[w] = int64(u)
				queue = append(queue, w)
				tail++
			}
		}
	}

	return &TraceResult{Trace: trace, Parent: parent, Footprint: fp}, nil
}

// HighestDegreeVertex returns the vertex with maximum degree — a good BFS
// root for producing a long, memory-intensive search (graph500 itself
// samples roots with nonzero degree; the paper traces a period of high
// memory pressure, which a giant-component root reproduces).
func (g *Graph) HighestDegreeVertex() uint64 {
	best, bestDeg := uint64(0), uint64(0)
	for v := uint64(0); v < g.NumVertices; v++ {
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best
}
