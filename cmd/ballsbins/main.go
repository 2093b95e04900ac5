// Command ballsbins runs the dynamic balls-and-bins experiments behind
// Theorem 2: the peak maximum load of OneChoice, Greedy[d] and Iceberg[2]
// under insert/delete churn against an oblivious adversary.
//
// Usage:
//
//	ballsbins                      # default sweep
//	ballsbins -lambda 64 -bins 4096 -churn 100000
//	ballsbins -sweep               # table across bin counts (Theorem 2 shape)
package main

import (
	"flag"
	"fmt"
	"os"

	"addrxlat/internal/ballsbins"
	"addrxlat/internal/experiments"
)

func main() {
	var (
		lambda = flag.Int("lambda", 32, "average load λ = balls/bins")
		bins   = flag.Int("bins", 1<<12, "number of bins (single-run mode)")
		churn  = flag.Int("churn", 50000, "churn steps (delete+insert pairs)")
		seed   = flag.Uint64("seed", 1, "random seed")
		sweep  = flag.Bool("sweep", false, "sweep bin counts and print the Theorem 2 table")
		reins  = flag.Bool("reinsert", false, "use the re-insertion adversary")
		hist   = flag.Bool("hist", false, "print the final load histogram per rule")
	)
	flag.Parse()

	if *sweep {
		tab, err := experiments.Theorem2(experiments.Scale{}, *lambda, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}, *churn, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ballsbins: %v\n", err)
			os.Exit(1)
		}
		if err := tab.WriteTSV(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ballsbins: %v\n", err)
			os.Exit(1)
		}
		return
	}

	m := *bins * *lambda
	rules := []ballsbins.Rule{
		ballsbins.NewOneChoice(*bins, *seed),
		ballsbins.NewGreedy(*bins, 2, *seed),
		ballsbins.NewGreedy(*bins, 3, *seed),
		ballsbins.NewIceberg(*bins, 2, ballsbins.DefaultThreshold(m, *bins), *seed),
	}
	fmt.Printf("n=%d bins, m=%d balls (λ=%d), %d churn steps, reinsert=%v\n\n",
		*bins, m, *lambda, *churn, *reins)
	for _, r := range rules {
		g := ballsbins.NewGame(r, m, *seed+7)
		if *reins {
			g.ChurnReinsert(*churn)
		} else {
			g.Churn(*churn)
		}
		fmt.Println(g.Summarize())
		fmt.Printf("  median load %d, p99.9 load %d\n",
			ballsbins.Quantile(r, 0.5), ballsbins.Quantile(r, 0.999))
		if ib, ok := r.(*ballsbins.Iceberg); ok {
			fmt.Printf("  iceberg detail: threshold=%d front_inserts=%d back_inserts=%d max_back_load=%d\n",
				ib.Threshold(), ib.FrontInsertions(), ib.BackInsertions(), ib.MaxBackLoad())
		}
		if *hist {
			fmt.Print(ballsbins.FormatHistogram(ballsbins.LoadHistogram(r), 50))
		}
	}
}
