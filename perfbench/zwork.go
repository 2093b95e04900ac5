package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"addrxlat/internal/core"
	"addrxlat/internal/hashutil"
	"addrxlat/internal/mm"
	"addrxlat/internal/policy"
	"addrxlat/internal/tlb"
	"addrxlat/internal/workload"
	"addrxlat/internal/xtrace"
)

// zGeometry sizes a z workload: algorithm Z's machine, the warm-up, and
// the rounds.
type zGeometry struct {
	ram, virt, hot uint64 // RAM P, virtual pages V, z-read's hot set
	tlb            int    // TLB entries ℓ
	warmup         int    // accesses before the first round
	chunk          int    // accesses per chunk
	roundChunks    int    // chunks per round, a multiple of zTraceBlock
}

// zDefault runs Theorem 4's algorithm Z (Iceberg allocation, LRU/LRU) on
// the Figure 1a machine at default scale: V = 2^18, P = 2^16, 24 TLB
// entries, w = 64. A round is 64 chunks of workload.DefaultChunk.
var zDefault = zGeometry{
	ram: 1 << 16, virt: 1 << 18, hot: 4096, tlb: 24,
	warmup: 2_000_000, chunk: workload.DefaultChunk, roundChunks: 64,
}

// zGoldenRounds is how many rounds golden.json records; every
// repetition runs at least this many.
const zGoldenRounds = 3

func zConfig(g zGeometry, seed uint64) mm.DecoupledConfig {
	return mm.DecoupledConfig{
		Alloc:        core.IcebergAlloc,
		RAMPages:     g.ram,
		VirtualPages: g.virt,
		TLBEntries:   g.tlb,
		ValueBits:    64,
		TLBPolicy:    policy.LRUKind,
		RAMPolicy:    policy.LRUKind,
		Seed:         seed,
	}
}

// zStream is z-read's bimodal stream, whose hot set fits RAM
// (p = 0.9999).
func zStream(g zGeometry, seed uint64) (workload.Generator, error) {
	return workload.NewBimodal(g.hot, g.virt, 0.9999, hashutil.Mix64(seed))
}

// zMachine is one algorithm Z instance and its request stream, driven
// one chunk at a time by a single caller.
type zMachine struct {
	z      *mm.Decoupled
	gen    workload.Generator
	buf    []uint64
	chunks int        // chunks per round
	sh     *zShadows  // traced runs: the layer-by-layer replay of z
	block  [][]uint64 // traced runs: the chunks awaiting replay
}

func newZMachine(h *harness, shadow bool) (*zMachine, error) {
	cfg := zConfig(h.zg, h.o.seed)
	z, err := mm.NewDecoupled(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := zStream(h.zg, h.o.seed)
	if err != nil {
		return nil, err
	}
	m := &zMachine{z: z, gen: gen, buf: make([]uint64, h.zg.chunk), chunks: h.zg.roundChunks}
	if shadow {
		if m.sh, err = newZShadows(cfg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// warm drives the warm-up that fills simulated RAM, then resets the
// counters: the paper's warm-up-then-measure method. The shadows, if
// any, follow every chunk.
func (m *zMachine) warm(h *harness) mm.Costs {
	for left := h.zg.warmup; left > 0; {
		chunk := m.buf[:min(left, len(m.buf))]
		workload.Fill(m.gen, chunk)
		m.z.AccessBatch(chunk)
		if m.sh != nil {
			m.sh.replay(nil, nil, h.clockNS, [][]uint64{chunk}, 0)
		}
		left -= len(chunk)
	}
	c := m.z.Costs()
	m.z.ResetCosts()
	if m.sh != nil {
		m.sh.reset()
	}
	return c
}

func (m *zMachine) round() {
	for i := 0; i < m.chunks; i++ {
		workload.Fill(m.gen, m.buf)
		m.z.AccessBatch(m.buf)
	}
}

// zLedger is the z workloads' per-layer ledger.
type zLedger struct {
	fill, decoupled, replay, lru, resolve, lookup, probe *series
}

// zTraceBlock is how many chunks the outer call serves before the
// shadows replay them. Each copy of Z's state then runs that many chunks
// in a row, with caches about as warm as the outer call's, instead of
// five copies evicting each other's state chunk by chunk.
const zTraceBlock = 8

// tracedRound is round with spans around each call into a layer, the
// shadows replaying every block of chunks after the outer calls. It
// returns the time of the outer calls alone, in s.
func (m *zMachine) tracedRound(h *harness, led *zLedger) float64 {
	rec := h.rec
	if m.block == nil {
		m.block = make([][]uint64, zTraceBlock)
		for j := range m.block {
			m.block[j] = make([]uint64, len(m.buf))
		}
	}
	var outer int64
	for first := 0; first < m.chunks; first += zTraceBlock {
		for j, vs := range m.block {
			rec.begin()
			t0 := rec.now()
			workload.Fill(m.gen, vs)
			t1 := rec.now()
			m.z.AccessBatch(vs)
			t2 := rec.now()
			n := int64(len(vs))
			rec.span("workload.Fill", t0, t1, xtrace.ArgInt("n", n))
			rec.span("mm.Decoupled.AccessBatch", t1, t2, xtrace.ArgInt("n", n))
			rec.end("perfbench.chunk", xtrace.ArgInt("chunk", int64(first+j)))
			led.fill.add(float64(t1-t0)-h.clockNS, n)
			led.decoupled.add(float64(t2-t1)-h.clockNS, n)
			outer += t2 - t0
		}
		rec.begin()
		m.sh.replay(rec, led, h.clockNS, m.block, first)
		rec.end("replay.mm.Decoupled.AccessBatch", xtrace.ArgInt("first_chunk", int64(first)))
	}
	return float64(outer) / 1e9
}

// Replay levels. Decoupled.AccessBatch nests four calls per access,
// most too short (10–70 ns) to time one by one: a clock read costs about
// 40 ns here and stalls the pipeline, and a first version that timed
// each call over-attributed the chunk by half. Instead, three copies of
// Z's state replay each chunk, each making the calls of one level and
// all below, and a layer's time is the difference between two levels'
// chunk times. The levels change no state the others depend on: IsFailed
// and Lookup only read, and the lru level applies its misses' ResolveMiss
// calls after its timed pass, in order. So every copy stays identical and
// the copies trade levels from block to block, which cancels any speed
// difference between them (where their memory happens to lie).
const (
	levelLRU     = iota // policy.DenseLRU.AccessSlot, the Y cache
	levelResolve        // + core.Scheme.ResolveMiss on each Y miss
	levelFull           // + core.Scheme.IsFailed on each Y hit and
	//                       core.Scheme.Lookup on each resident page
	nLevels
)

var levelNames = [nLevels]string{"lru", "resolve", "full"}

// zCopy is one copy of Z's RAM side: the Y cache and the scheme.
type zCopy struct {
	scheme *core.Scheme
	ram    *policy.DenseLRU
}

// passStats counts one chunk's pass 1 at one level, with the
// clock-corrected time of its ResolveMiss calls. ios and decodes are
// only complete at the full level.
type passStats struct {
	resolveNS                      float64
	slots, resolves, hits, lookups int64
	ios, decodes, undecodable      uint64
}

// deferred is a Y miss the lru level resolves after its timed pass.
type deferred struct {
	v, victim uint64
	has       bool
}

// zShadows replays Decoupled.AccessBatch through the layers it nests, in
// its order: pass 1 walks the chunk through the Y cache, resolving each
// miss through the allocator, testing hits for paging failure and
// decoding resident pages; pass 2 probes the huge-page column through
// the TLB. Its counters must equal the outer call's.
type zShadows struct {
	copies  [nLevels]zCopy
	tlb     *tlb.TLB
	shift   uint
	miss    []uint64
	pending []deferred

	costs       mm.Costs
	slots, hits uint64 // Y-cache calls and hits since the warm-up
	undecodable uint64 // resident pages whose Lookup failed
}

func newZShadows(cfg mm.DecoupledConfig) (*zShadows, error) {
	params, err := core.DeriveParams(cfg.Alloc, cfg.RAMPages, cfg.VirtualPages, cfg.ValueBits)
	if err != nil {
		return nil, err
	}
	t, err := tlb.New(cfg.TLBEntries, cfg.TLBPolicy, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	if !t.Flat() {
		return nil, fmt.Errorf("the replay needs the flat LRU TLB")
	}
	zs := &zShadows{
		tlb:     t,
		shift:   uint(bits.TrailingZeros64(uint64(params.HMax))),
		miss:    make([]uint64, 0, workload.DefaultChunk),
		pending: make([]deferred, 0, workload.DefaultChunk),
	}
	for i := range zs.copies {
		scheme, err := core.NewScheme(params, cfg.Seed)
		if err != nil {
			return nil, err
		}
		p, err := policy.New(cfg.RAMPolicy, int(params.MaxResident), cfg.Seed+3)
		if err != nil {
			return nil, err
		}
		ram, ok := p.(*policy.DenseLRU)
		if !ok {
			return nil, fmt.Errorf("the replay needs the flat LRU Y cache, got %T", p)
		}
		zs.copies[i] = zCopy{scheme: scheme, ram: ram}
	}
	return zs, nil
}

// reset zeroes the counters after the warm-up, keeping all state.
func (zs *zShadows) reset() {
	zs.costs = mm.Costs{}
	zs.slots, zs.hits = 0, 0
}

// pass1 is Decoupled's pass 1 on copy c, making the calls of level and
// below. At levelLRU the misses queue in zs.pending for resolve. Each
// ResolveMiss call is timed on its own: at 0.3–2 µs it dwarfs a clock
// read, and as the resolve and full levels time it alike, the reads
// cancel in the difference that prices IsFailed and Lookup.
func (zs *zShadows) pass1(c zCopy, level int, vs []uint64, clock float64) (st passStats) {
	var prevV uint64
	prevFailed, havePrev := false, false
	for _, v := range vs {
		if havePrev && v == prevV {
			// A repeat is a Y hit of the MRU page with no scheme
			// traffic; only failed pages charge again.
			if prevFailed {
				st.ios++
				st.decodes++
			}
			continue
		}
		havePrev, prevV = true, v
		_, hit, victim := c.ram.AccessSlot(v)
		st.slots++
		prevFailed = false
		if !hit {
			st.ios++
			st.resolves++
			if level == levelLRU {
				zs.pending = append(zs.pending, deferred{v, victim, victim != policy.NoEviction})
				continue
			}
			t := nowNS()
			if victim != policy.NoEviction {
				prevFailed = c.scheme.ResolveMiss(v, victim, true)
			} else {
				prevFailed = c.scheme.ResolveMiss(v, 0, false)
			}
			st.resolveNS += float64(nowNS()-t) - clock
		} else {
			st.hits++
			if level == levelFull {
				prevFailed = c.scheme.IsFailed(v)
			}
		}
		if prevFailed {
			st.ios++
			st.decodes++
			continue
		}
		if level == levelFull {
			st.lookups++
			if c.scheme.Lookup(v) == core.NullAddress {
				st.undecodable++
			}
		}
	}
	return st
}

// resolve applies the lru level's queued misses to copy c, in order.
func (zs *zShadows) resolve(c zCopy) {
	for _, d := range zs.pending {
		if d.has {
			c.scheme.ResolveMiss(d.v, d.victim, true)
		} else {
			c.scheme.ResolveMiss(d.v, 0, false)
		}
	}
	zs.pending = zs.pending[:0]
}

// replay serves a block of chunks on every copy in turn, copy c playing
// level (c + block) mod 3, then runs pass 2 on each chunk. With led set
// it books each chunk's per-layer times: the Y cache's is the lru
// level's time, ResolveMiss's its timed calls, and IsFailed's with
// Lookup's the full level's time less the resolve level's. The three
// add up to the full level's time less its ResolveMiss clock reads.
func (zs *zShadows) replay(rec *spanRec, led *zLedger, clock float64, chunks [][]uint64, first int) {
	var st [nLevels][zTraceBlock]passStats
	var ns [nLevels][zTraceBlock]float64
	var at, id [zTraceBlock]int64
	block := first / zTraceBlock
	for ci, c := range zs.copies {
		lv := (ci + block) % nLevels
		rec.begin()
		for j, vs := range chunks {
			a := nowNS()
			st[lv][j] = zs.pass1(c, lv, vs, clock)
			b := nowNS()
			ns[lv][j] = float64(b-a) - clock
			sid := rec.span("replay.pass1", a, b, xtrace.ArgStr("level", levelNames[lv]), xtrace.ArgInt("chunk", int64(first+j)))
			if lv == levelLRU {
				zs.resolve(c)
			}
			if lv == levelFull {
				at[j], id[j] = a, sid
			}
		}
		rec.end("replay.level", xtrace.ArgStr("level", levelNames[lv]), xtrace.ArgInt("copy", int64(ci)))
	}
	for j, vs := range chunks {
		a := nowNS()
		miss, _ := zs.tlb.ProbeFill(vs, zs.shift, zs.miss[:0])
		b := nowNS()
		rec.span("tlb.TLB.ProbeFill", a, b, xtrace.ArgInt("chunk", int64(first+j)), xtrace.ArgInt("misses", int64(len(miss))))
		zs.miss = miss
		probe := float64(b-a) - clock
		full := st[levelFull][j]
		zs.costs.Accesses += uint64(len(vs))
		zs.costs.IOs += full.ios
		zs.costs.DecodingMisses += full.decodes
		zs.costs.TLBMisses += uint64(len(miss))
		zs.slots += uint64(full.slots)
		zs.hits += uint64(full.hits)
		zs.undecodable += full.undecodable
		if led == nil {
			continue
		}
		sum := probe
		for _, p := range []struct {
			s     *series
			ns    float64
			calls int64
		}{
			{led.lru, ns[levelLRU][j], full.slots},
			{led.resolve, full.resolveNS, full.resolves},
			{led.lookup, ns[levelFull][j] - ns[levelResolve][j], full.lookups},
		} {
			p.s.add(p.ns, p.calls)
			sum += p.ns
			rec.aggregate(p.s.name, id[j], at[j], int64(ns[levelFull][j]), p.ns, p.calls)
		}
		led.probe.add(probe, int64(len(vs)))
		led.replay.add(sum, int64(len(vs)))
	}
}

// zCosts is one golden record: a cost delta and the paging-failure count
// at its end.
type zCosts struct {
	IOs      uint64 `json:"ios"`
	TLB      uint64 `json:"tlb_misses"`
	Decode   uint64 `json:"decode_misses"`
	Accesses uint64 `json:"accesses"`
	Failures uint64 `json:"failures"`
}

func zRecord(c mm.Costs, failures uint64) zCosts {
	return zCosts{c.IOs, c.TLBMisses, c.DecodingMisses, c.Accesses, failures}
}

func costsSince(now, before mm.Costs) mm.Costs {
	return mm.Costs{
		IOs:            now.IOs - before.IOs,
		TLBMisses:      now.TLBMisses - before.TLBMisses,
		DecodingMisses: now.DecodingMisses - before.DecodingMisses,
		Accesses:       now.Accesses - before.Accesses,
	}
}

// setupZ is z-read's set-up: it builds algorithm Z and warms it, and
// checks the warm-up's costs.
func setupZ(h *harness) (*zMachine, zCosts, error) {
	runtime.GC()
	start := time.Now()
	m, err := newZMachine(h, false)
	if err != nil {
		return nil, zCosts{}, err
	}
	warm := zRecord(m.warm(h), m.z.Scheme().TotalFailures())
	h.setups = append(h.setups, time.Since(start).Seconds())
	h.check(warm.Accesses == uint64(h.zg.warmup), "warm-up served %d accesses, drove %d", warm.Accesses, h.zg.warmup)
	if h.o.seed == defaultSeed {
		gold := h.gold.Z[h.o.workload]
		h.check(warm == gold.Warmup, "warm-up costs %+v, golden %+v", warm, gold.Warmup)
		h.logf("warm-up %+v", warm)
	}
	return m, warm, nil
}

// zRounds runs n timed rounds on m and returns each round's costs. Every
// round must serve the accesses it drove; at the default seed the first
// rounds must match golden.json's.
func zRounds(h *harness, m *zMachine, n int) []mm.Costs {
	gold := h.gold.Z[h.o.workload]
	checkGold := h.o.seed == defaultSeed
	var costs []mm.Costs
	for i := 0; i < n; i++ {
		before := m.z.Costs()
		runtime.GC()
		start := time.Now()
		m.round()
		secs := time.Since(start).Seconds()
		c := costsSince(m.z.Costs(), before)
		h.roundsS = append(h.roundsS, secs)
		costs = append(costs, c)
		driven := uint64(m.chunks * len(m.buf))
		h.check(c.Accesses == driven, "round %d served %d accesses, drove %d", i, c.Accesses, driven)
		if checkGold && i < zGoldenRounds {
			got := zRecord(c, m.z.Scheme().TotalFailures())
			var want zCosts
			if i < len(gold.Rounds) {
				want = gold.Rounds[i]
			}
			h.check(got == want, "round %d costs %+v, golden %+v", i, got, want)
			h.logf("round %d %+v", i, got)
		}
	}
	return costs
}

// repZ is one repetition of z-read: set-up, then h.rounds timed rounds.
// It returns the digest of the warm-up's and every round's costs.
func repZ(h *harness) (string, error) {
	m, warm, err := setupZ(h)
	if err != nil {
		return "", err
	}
	sum := sha256.New()
	fmt.Fprintf(sum, "%+v\n", warm)
	for _, c := range zRounds(h, m, h.rounds) {
		fmt.Fprintf(sum, "%+v\n", c)
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// traceZ is the traced mode of the z workloads: after the set-up and
// untraced rounds, a fresh machine with its shadows, warmed identically,
// runs traced rounds that must match the untraced rounds' costs, while
// the full shadow reproduces every round's counters layer by layer.
func traceZ(h *harness) error {
	m0, _, err := setupZ(h)
	if err != nil {
		return err
	}
	plain := zRounds(h, m0, max(zGoldenRounds, h.rounds/2))
	m, err := newZMachine(h, true)
	if err != nil {
		return err
	}
	m.warm(h)
	outer := m.z.Scheme()
	pageIns, failures := outer.PageIns(), outer.TotalFailures()
	h.led = &ledger{}
	led := &zLedger{
		fill:      h.led.series("workload.Fill", "access"),
		decoupled: h.led.series("mm.Decoupled.AccessBatch", "access"),
		replay:    h.led.series("replay (pass 1 + pass 2)", "access"),
		lru:       h.led.series("policy.DenseLRU.AccessSlot", "call"),
		resolve:   h.led.series("core.Scheme.ResolveMiss", "call"),
		lookup:    h.led.series("core.Scheme.IsFailed+Lookup", "call"),
		probe:     h.led.series("tlb.TLB.ProbeFill", "access"),
	}
	sh := m.sh
	n := max(2, h.rounds/2)
	var traced []float64
	for i := 0; i < n; i++ {
		h.rec.round = int64(i + 1)
		before := m.z.Costs()
		runtime.GC()
		h.rec.begin()
		traced = append(traced, m.tracedRound(h, led))
		h.rec.end("perfbench.round")
		c := costsSince(m.z.Costs(), before)
		if i < len(plain) {
			h.check(c == plain[i], "traced round %d costs %v differ from untraced round's %v", i, c, plain[i])
		}
		h.check(sh.costs == m.z.Costs(), "replay of mm.Decoupled.AccessBatch through round %d: %v, outer call %v", i, sh.costs, m.z.Costs())
	}
	h.rec.round = 0
	for ci, c := range sh.copies {
		h.check(c.scheme.PageIns() == outer.PageIns() && c.scheme.TotalFailures() == outer.TotalFailures(),
			"replay copy %d paged in %d (%d failed), outer scheme %d (%d failed)",
			ci, c.scheme.PageIns(), c.scheme.TotalFailures(), outer.PageIns(), outer.TotalFailures())
	}
	h.check(sh.undecodable == 0, "%d resident pages failed to decode in the replay", sh.undecodable)

	layerNS := led.fill.ns + led.lru.ns + led.resolve.ns + led.lookup.ns + led.probe.ns
	h.layer["ledger.coverage"] = layerNS / (led.fill.ns + led.decoupled.ns)
	h.layer["trace.overhead_ratio"] = median(traced)/median(h.roundsS) - 1
	h.layer["workload.fill_ns_per_access"] = led.fill.rate()
	h.layer["workload.fill_share"] = led.fill.ns / (led.fill.ns + led.decoupled.ns)
	h.layer["mm.decoupled.ns_per_access"] = led.decoupled.rate()
	h.layer["policy.lru.ns_per_access"] = led.lru.rate()
	h.layer["policy.lru.hit_ratio"] = ratio(sh.hits, sh.slots)
	h.layer["tlb.probe.ns_per_access"] = led.probe.rate()
	h.layer["tlb.miss_ratio"] = ratio(m.z.Costs().TLBMisses, m.z.Costs().Accesses)
	h.layer["core.lookup.ns_per_call"] = led.lookup.rate()
	h.layer["core.lookup.calls"] = float64(led.lookup.calls)
	h.layer["core.resolve.ns_per_call"] = led.resolve.rate()
	h.layer["core.resolve.calls"] = float64(led.resolve.calls)
	h.layer["core.failure_ratio"] = ratio(outer.TotalFailures()-failures, outer.PageIns()-pageIns)
	setCostRates(h, m.z.Costs())
	return nil
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
