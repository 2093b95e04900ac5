package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON holds the outputs recorded at the default seed: the SHA-256
// of each table's TSV, and z-read's costs after warm-up and
// for their first rounds, each with the paging-failure count at its end.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	Seed   uint64             `json:"seed"`
	Tables map[string]string  `json:"tables"`
	Z      map[string]zGolden `json:"z"`
}

type zGolden struct {
	Warmup zCosts   `json:"warmup"`
	Rounds []zCosts `json:"rounds"`
}

// loadGolden parses a golden file.
func loadGolden(data []byte) (*golden, error) {
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parsing golden file: %w", err)
	}
	if g.Seed != defaultSeed {
		return nil, fmt.Errorf("golden file is for seed %d, the harness checks seed %d", g.Seed, defaultSeed)
	}
	return &g, nil
}
