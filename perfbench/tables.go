package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"addrxlat/internal/experiments"
	"addrxlat/internal/xtrace"
)

// tableCall is one experiments table a fig1 or serve round regenerates.
type tableCall struct {
	id   string // per-layer metric id: experiments.<id>_s
	span string // span name of the call
	run  func(s experiments.Scale, seed uint64) (*experiments.Table, error)
}

// benchScale is cmd/figures' default scale with Workers = nproc; Cache
// and Blobs stay nil, so every round simulates every cell.
func benchScale() experiments.Scale {
	s := experiments.DownScale()
	s.Workers = runtime.NumCPU()
	return s
}

// tableRound is one round's output: each table with its TSV rendering
// and the wall time of its call. The round's time is the sum of its
// calls'.
type tableRound struct {
	tables []*experiments.Table
	tsv    [][]byte
	secs   []float64
}

func (r *tableRound) total() float64 {
	t := 0.0
	for _, s := range r.secs {
		t += s
	}
	return t
}

// digest names the whole round's output.
func (r *tableRound) digest() string {
	sum := sha256.New()
	for _, b := range r.tsv {
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

func tsvDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// runTableRound calls every table once, in order, recording a span per
// call when tracing. The GC runs before each call, outside its timing:
// each table then starts from the same heap, which keeps the process's
// peak resident set from depending on where a collection happened to
// fall.
func runTableRound(h *harness, calls []tableCall, s experiments.Scale) (*tableRound, error) {
	r := &tableRound{}
	for _, c := range calls {
		runtime.GC()
		h.rec.begin()
		start := time.Now()
		t, err := c.run(s, h.o.seed)
		secs := time.Since(start).Seconds()
		h.rec.end(c.span, xtrace.ArgStr("table", c.id))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.id, err)
		}
		var buf bytes.Buffer
		if err := t.WriteTSV(&buf); err != nil {
			return nil, fmt.Errorf("%s: rendering: %w", c.id, err)
		}
		r.tables = append(r.tables, t)
		r.tsv = append(r.tsv, buf.Bytes())
		r.secs = append(r.secs, secs)
	}
	return r, nil
}

// checkClean checks that no table of the round has an error row or a
// footnote: a degraded cell renders as both.
func checkClean(h *harness, r *tableRound) {
	for _, t := range r.tables {
		bad := len(t.Notes) > 0
		for _, row := range t.Rows {
			for _, cell := range row {
				bad = bad || cell == "error"
			}
		}
		h.check(!bad, "table %s has an error row or note: %q", t.Name, t.Notes)
	}
}

// checkSame checks that a round's tables are byte-identical to the
// reference round's.
func checkSame(h *harness, ref, r *tableRound) {
	for i, t := range r.tables {
		h.check(bytes.Equal(ref.tsv[i], r.tsv[i]), "table %s differs from the first round's", t.Name)
	}
}

// checkGolden compares each table with its digest recorded at the
// default seed.
func checkGolden(h *harness, r *tableRound) {
	if h.o.seed != defaultSeed {
		return
	}
	for i, t := range r.tables {
		got := tsvDigest(r.tsv[i])
		want := h.gold.Tables[t.Name]
		h.check(got == want, "table %s digest %s, golden %s", t.Name, got, want)
		h.logf("digest %s %s", t.Name, got)
	}
}

// setupTables is the set-up of fig1 and serve: an untimed cold first
// round, which every process pays. Its tables are checked for error rows
// and against the golden digests, and are the reference the timed rounds
// must reproduce.
func setupTables(h *harness, s experiments.Scale) (*tableRound, error) {
	ref, err := runTableRound(h, h.w.calls, s)
	if err != nil {
		return nil, err
	}
	h.setups = append(h.setups, ref.total())
	checkClean(h, ref)
	checkGolden(h, ref)
	return ref, nil
}

// repTables is one repetition of fig1 or serve: the set-up round, then
// h.rounds timed rounds, each regenerating every table. It returns the
// digest of the set-up round's tables, which every round reproduced.
func repTables(h *harness) (string, error) {
	s := benchScale()
	ref, err := setupTables(h, s)
	if err != nil {
		return "", err
	}
	for i := 0; i < h.rounds; i++ {
		r, err := runTableRound(h, h.w.calls, s)
		if err != nil {
			return "", err
		}
		h.roundsS = append(h.roundsS, r.total())
		checkClean(h, r)
		checkSame(h, ref, r)
	}
	return ref.digest(), nil
}

// traceTables is the traced mode of fig1 and serve: after the set-up
// round, untraced rounds for the overhead baseline, traced rounds timing
// each table call, then a replay of the nested layers that must
// reproduce the tables' counters.
func traceTables(h *harness) error {
	calls := h.w.calls
	s := benchScale()
	ref, err := setupTables(h, s)
	if err != nil {
		return err
	}
	rec := h.rec
	n := max(3, h.rounds/2)
	var plain, traced []float64
	perCall := make([][]float64, len(calls))
	for i := 0; i < 2*n; i++ {
		tracing := i >= n
		h.rec = nil
		if tracing {
			h.rec = rec
			rec.round = int64(i - n + 1)
		}
		h.rec.begin()
		r, err := runTableRound(h, calls, s)
		h.rec.end("perfbench.round")
		if err != nil {
			return err
		}
		checkClean(h, r)
		checkSame(h, ref, r)
		if !tracing {
			plain = append(plain, r.total())
			continue
		}
		traced = append(traced, r.total())
		for j := range calls {
			perCall[j] = append(perCall[j], r.secs[j])
		}
	}
	h.rec = rec
	rec.round = 0
	wall := 0.0
	for j, c := range calls {
		m := median(perCall[j])
		h.layer["experiments."+c.id+"_s"] = m
		wall += m
	}
	h.layer["trace.overhead_ratio"] = median(traced)/median(plain) - 1

	work, err := h.w.replay(h, s, ref.tables)
	if err != nil {
		return err
	}
	h.layer["experiments.parallel_speedup"] = work / wall
	return nil
}
