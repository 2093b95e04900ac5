package experiments

import (
	"fmt"

	"addrxlat/internal/core"
)

// FailureProbability empirically validates the "with high probability in
// P" guarantees of Theorems 1 and 3: across many independent seeds, fill
// each allocation scheme to m = (1−δ)P pages and churn, recording the
// fraction of seeds that ever see a paging failure. The theorems say this
// fraction vanishes as P grows; the table reports it for several P at the
// derived geometry.
func FailureProbability(s Scale, logPs []uint, seeds int) (*Table, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("experiments: seeds must be positive")
	}
	if len(logPs) == 0 {
		logPs = []uint{12, 14, 16, 18}
	}
	t := &Table{
		Name: "whp-failures",
		Caption: fmt.Sprintf(
			"Empirical w.h.p. validation: fraction of %d seeds with ≥1 paging failure (fill to m, then churn)",
			seeds),
		Columns: []string{"P", "kind", "B", "m", "delta", "seeds_with_failures", "failure_ops_total"},
	}
	var cells []core.Params
	for _, logP := range logPs {
		P := uint64(1) << logP
		for _, kind := range []core.AllocKind{core.SingleChoice, core.IcebergAlloc} {
			p, err := core.DeriveParams(kind, P, P*16, 64)
			if err != nil {
				return nil, err
			}
			cells = append(cells, p)
		}
	}
	// One task per (cell, seed) trial; each row folds its cell's trials in
	// seed order.
	failures := make([]uint64, len(cells)*seeds)
	err := s.forEach(len(failures), func(k int) error {
		i, seed := k/seeds, k%seeds
		fill, churn, _ := runFailureTrial(cells[i], uint64(seed)*2654435761)
		failures[k] = fill + churn
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range cells {
		seedsWith, failureOps := 0, uint64(0)
		for _, f := range failures[i*seeds : (i+1)*seeds] {
			if f > 0 {
				seedsWith++
				failureOps += f
			}
		}
		t.AddRow(p.P, string(p.Kind), p.B, p.MaxResident,
			fmt.Sprintf("%.4f", p.Delta), seedsWith, failureOps)
	}
	return t, nil
}
