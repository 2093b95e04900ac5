package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"addrxlat/internal/event"
	"addrxlat/internal/mm"
	"addrxlat/internal/serve"
)

func pt(acc, ios uint64) mm.Costs {
	return mm.Costs{Accesses: acc, IOs: ios, TLBMisses: acc / 2, DecodingMisses: acc / 4}
}

// sample is an event.KindSample event carrying c.
func sample(row, phase, alg string, c mm.Costs) event.Event {
	return event.Event{Kind: event.KindSample, Row: row, Phase: phase, Alg: alg, Costs: c}
}

// TestRecorderDownsampling pins the interval policy: a point is kept when
// the series has advanced at least interval accesses since the last kept
// point, and the undersampled tail is flushed at snapshot time so curves
// always end at the final counters.
func TestRecorderDownsampling(t *testing.T) {
	r := NewRecorder(100)
	r.Observe(sample("row", mm.PhaseMeasured, "alg", pt(10, 1)))  // first: kept
	r.Observe(sample("row", mm.PhaseMeasured, "alg", pt(50, 2)))  // +40: dropped
	r.Observe(sample("row", mm.PhaseMeasured, "alg", pt(110, 3))) // +100: kept
	r.Observe(sample("row", mm.PhaseMeasured, "alg", pt(150, 4))) // +40: tail

	if !r.HasSeries() {
		t.Fatal("HasSeries = false after samples")
	}
	snap := r.SeriesSnapshot()
	if len(snap) != 1 {
		t.Fatalf("got %d series, want 1", len(snap))
	}
	var got []uint64
	for _, p := range snap[0].Points {
		got = append(got, p.Accesses)
	}
	want := []uint64{10, 110, 150}
	if len(got) != len(want) {
		t.Fatalf("point x-axis = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point x-axis = %v, want %v", got, want)
		}
	}
	// The tail flush is snapshot-local: a later sample past the interval
	// still lands as a recorded point.
	r.Observe(sample("row", mm.PhaseMeasured, "alg", pt(210, 5)))
	snap = r.SeriesSnapshot()
	last := snap[0].Points[len(snap[0].Points)-1]
	if last.Accesses != 210 || last.IOs != 5 {
		t.Fatalf("last point = %+v, want accesses=210 ios=5", last)
	}
}

// TestRecorderIntervalZero checks that interval 0 disables series
// recording but keeps collecting phase records, so manifests stay
// complete when curve sampling is off.
func TestRecorderIntervalZero(t *testing.T) {
	r := NewRecorder(0)
	r.Observe(sample("row", mm.PhaseMeasured, "alg", pt(10, 1)))
	r.Observe(sample("", mm.PhaseWarmup, "alg", pt(20, 2)))
	if r.HasSeries() {
		t.Fatal("HasSeries = true with interval 0")
	}
	r.Observe(event.Event{Kind: event.KindPhase, Row: "row", Phase: mm.PhaseWarmup, Alg: "alg", Accesses: 1000, Elapsed: 2 * time.Second})
	ph := r.Phases()
	if len(ph) != 1 {
		t.Fatalf("got %d phase records, want 1", len(ph))
	}
	if ph[0].Accesses != 1000 || ph[0].WallSeconds != 2 {
		t.Fatalf("phase record = %+v", ph[0])
	}
}

// TestRecorderNilIsNoOp: a nil Recorder must absorb every event, so
// callers can thread one unconditionally.
func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	r.Observe(sample("row", "p", "a", pt(1, 1)))
	r.Observe(event.Event{Kind: event.KindPhase, Row: "row", Phase: "p", Alg: "a", Accesses: 1, Elapsed: time.Second})
	r.Observe(event.Event{Kind: event.KindServe, Row: "t", Serve: &serve.SweepRecord{Table: "t"}})
	if r.HasSeries() || r.Phases() != nil || r.SeriesSnapshot() != nil || r.ServeRecord("t") != nil {
		t.Fatal("nil Recorder returned non-zero state")
	}
}

// TestSampleUsesEmptyRow: a sample without a row label lands under the
// empty row, which the JSON rendering omits.
func TestSampleUsesEmptyRow(t *testing.T) {
	r := NewRecorder(1)
	r.Observe(sample("", mm.PhaseMeasured, "alg", pt(5, 1)))
	snap := r.SeriesSnapshot()
	if len(snap) != 1 || snap[0].Row != "" || snap[0].Alg != "alg" {
		t.Fatalf("snapshot = %+v", snap)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), `"row"`) {
		t.Fatalf("JSON carries an empty row label:\n%s", sb.String())
	}
}

// TestWriteTSV is the golden test for the cost-curve file format
// documented in EXPERIMENTS.md: header, cumulative columns, and
// per-interval deltas, ordered row → warmup-before-measured → alg.
func TestWriteTSV(t *testing.T) {
	r := NewRecorder(10)
	r.Observe(sample("bimodal", mm.PhaseMeasured, "zigzag", mm.Costs{Accesses: 10, IOs: 4, TLBMisses: 6, DecodingMisses: 2}))
	r.Observe(sample("bimodal", mm.PhaseMeasured, "zigzag", mm.Costs{Accesses: 20, IOs: 5, TLBMisses: 9, DecodingMisses: 2}))
	r.Observe(sample("bimodal", mm.PhaseWarmup, "zigzag", mm.Costs{Accesses: 10, IOs: 8, TLBMisses: 10, DecodingMisses: 3}))

	var sb strings.Builder
	if err := r.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "row\tphase\talg\taccesses\tios\ttlb_misses\tdecode_misses\td_accesses\td_ios\td_tlb_misses\td_decode_misses\n" +
		"bimodal\twarmup\tzigzag\t10\t8\t10\t3\t10\t8\t10\t3\n" +
		"bimodal\tmeasured\tzigzag\t10\t4\t6\t2\t10\t4\t6\t2\n" +
		"bimodal\tmeasured\tzigzag\t20\t5\t9\t2\t10\t1\t3\t0\n"
	if sb.String() != want {
		t.Fatalf("WriteTSV:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestWriteJSON checks the JSON rendering is a parseable {"series": ...}
// document carrying the same points as the snapshot.
func TestWriteJSON(t *testing.T) {
	r := NewRecorder(1)
	r.Observe(sample("row", mm.PhaseMeasured, "alg", pt(7, 3)))
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []Series `json:"series"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || len(doc.Series[0].Points) != 1 || doc.Series[0].Points[0].Accesses != 7 {
		t.Fatalf("decoded %+v", doc)
	}
}
