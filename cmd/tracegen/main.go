// Command tracegen records workload page-access traces to the binary
// trace format, for later replay with `atsim -replay` or external tools.
//
// Synthetic workloads stream straight through trace.Writer in fixed-size
// chunks, so recording length is bounded by disk, not RAM — a billion
// accesses needs the same constant memory as a thousand. The graph500
// workload materializes its BFS trace first (the BFS itself needs the
// graph in memory) and then writes it the same way.
//
// Examples:
//
//	tracegen -workload bimodal -n 1000000 -o bimodal.trc
//	tracegen -workload bimodal -n 1000000000 -o big.trc   # constant memory
//	tracegen -workload graph500 -gscale 18 -roots 4 -o bfs.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"addrxlat/internal/graph500"
	"addrxlat/internal/trace"
	"addrxlat/internal/workload"
)

func main() {
	var (
		wl      = flag.String("workload", "bimodal", "workload: bimodal|graphwalk|uniform|zipf|sequential|graph500")
		out     = flag.String("o", "trace.trc", "output file")
		n       = flag.Int("n", 1_000_000, "accesses to record")
		vPages  = flag.Uint64("vpages", 1<<20, "virtual address space, pages")
		hotPg   = flag.Uint64("hot", 1<<14, "bimodal hot-region pages")
		hotProb = flag.Float64("hot-prob", 0.9999, "bimodal hot probability")
		zipfS   = flag.Float64("zipf-s", 1.1, "zipf exponent")
		alpha   = flag.Float64("alpha", 0.01, "graphwalk Pareto alpha")
		gscale  = flag.Int("gscale", 16, "graph500 scale")
		roots   = flag.Int("roots", 1, "graph500 BFS root count")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if *n <= 0 {
		fail(fmt.Errorf("-n must be positive"))
	}

	var stats trace.Stats
	var written int
	switch *wl {
	case "graph500":
		g, err := graph500.Generate(graph500.Config{Scale: *gscale, EdgeFactor: 16, Seed: *seed})
		if err != nil {
			fail(err)
		}
		rs := g.SampleRoots(*roots, *seed+1)
		if len(rs) == 0 {
			fail(fmt.Errorf("graph has no usable BFS roots"))
		}
		res, err := g.MultiBFSTrace(rs, graph500.DefaultLayout(), *n)
		if err != nil {
			fail(err)
		}
		stats = trace.Summarize(res.Trace)
		written = len(res.Trace)
		if err := writeAll(*out, uint64(written), func(w *trace.Writer) error {
			return w.Write(res.Trace)
		}); err != nil {
			fail(err)
		}
	default:
		var gen workload.Generator
		var err error
		switch *wl {
		case "bimodal":
			gen, err = workload.NewBimodal(*hotPg, *vPages, *hotProb, *seed)
		case "graphwalk":
			gen, err = workload.NewGraphWalk(*vPages, *alpha, *seed)
		case "uniform":
			gen, err = workload.NewUniform(*vPages, *seed)
		case "zipf":
			gen, err = workload.NewZipf(*vPages, *zipfS, *seed)
		case "sequential":
			gen, err = workload.NewSequential(*vPages)
		default:
			err = fmt.Errorf("unknown workload %q", *wl)
		}
		if err != nil {
			fail(err)
		}
		var acc trace.Accumulator
		written = *n
		if err := writeAll(*out, uint64(*n), func(w *trace.Writer) error {
			// One reused buffer: O(chunk) memory for any -n.
			buf := make([]uint64, workload.DefaultChunk)
			for left := *n; left > 0; {
				chunk := buf[:min(left, len(buf))]
				workload.Fill(gen, chunk)
				if err := w.Write(chunk); err != nil {
					return err
				}
				acc.Add(chunk)
				left -= len(chunk)
			}
			return nil
		}); err != nil {
			fail(err)
		}
		stats = acc.Stats()
	}

	fmt.Printf("wrote %d accesses to %s\n", written, *out)
	fmt.Printf("stats: %s\n", stats)
}

// writeAll creates the output file, wraps it in a trace.Writer declaring
// count accesses, runs fill, and closes both, reporting the first error.
func writeAll(path string, count uint64, fill func(*trace.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f, count)
	if err != nil {
		f.Close()
		return err
	}
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
	os.Exit(1)
}
