package experiments

// Experiment is one table of the evaluation: the id cmd/figures selects
// it by, and the function that regenerates it at a scale and root seed.
// Every table runs its work through the Scale — forEach or the row
// executor — so cancellation, the worker bound and the observer reach
// all of them. e2 and e2w are closed-form and ignore the Scale; t1, t2,
// t3, e3, whp, e6 and e10 have fixed dimensions and use only its
// execution fields, so -full leaves them unchanged.
type Experiment struct {
	ID  string
	Run func(Scale, uint64) (*Table, error)
}

// Registry lists every experiment in the order `figures -fig all` runs
// them (DESIGN.md §3 indexes them in the same order).
func Registry() []Experiment {
	return []Experiment{
		{"f1a", func(s Scale, seed uint64) (*Table, error) { return Fig1(F1aBimodal, s, seed) }},
		{"f1b", func(s Scale, seed uint64) (*Table, error) { return Fig1(F1bGraphWalk, s, seed) }},
		{"f1c", func(s Scale, seed uint64) (*Table, error) { return Fig1(F1cGraph500, s, seed) }},
		{"t1", func(s Scale, _ uint64) (*Table, error) { return Theorem1(s, 1<<18, 3) }},
		{"t2", func(s Scale, seed uint64) (*Table, error) {
			return Theorem2(s, 32, []int{1 << 8, 1 << 10, 1 << 12, 1 << 14}, 20000, seed)
		}},
		{"t3", func(s Scale, _ uint64) (*Table, error) { return Theorem3(s, 1<<18, 3) }},
		{"t4", Theorem4},
		{"e2", func(Scale, uint64) (*Table, error) { return Equation2(64) }},
		{"e2w", func(Scale, uint64) (*Table, error) { return CoverageVsW(1 << 32) }},
		{"e3", func(s Scale, seed uint64) (*Table, error) { return Policies(s, 1024, 500000, seed) }},
		{"e4", Adaptive},
		{"e5", Nested},
		{"h1", Hybrid},
		{"whp", func(s Scale, _ uint64) (*Table, error) { return FailureProbability(s, []uint{12, 14, 16, 18}, 20) }},
		{"e6", func(s Scale, seed uint64) (*Table, error) { return Tenants(s, 1536, 4096, 2_000_000, seed) }},
		{"e7", Related},
		{"e8", TimeShare},
		{"e9", TLBGeometryStudy},
		{"e10", func(s Scale, seed uint64) (*Table, error) { return MultiCoreStudy(s, 1536, 1<<14, 2_000_000, seed) }},
		{"x1", Crossover},
		{"sv1", ServeGoodput},
		{"sv2", ServeLatency},
		{"sv3", ServeSLO},
	}
}
