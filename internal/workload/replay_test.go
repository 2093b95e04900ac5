package workload

import (
	"bytes"
	"testing"

	"addrxlat/internal/trace"
)

func TestReplayErrors(t *testing.T) {
	if _, err := NewReplay(nil); err == nil {
		t.Error("empty trace should error")
	}
	if _, err := NewReplayFrom(bytes.NewReader([]byte("junkjunkjunkjunk"))); err == nil {
		t.Error("bad stream should error")
	}
}

func TestReplayCycles(t *testing.T) {
	rp, err := NewReplay([]uint64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	got := Take(rp, 7)
	want := []uint64{10, 20, 30, 10, 20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Take = %v", got)
		}
	}
	if rp.Laps() != 2 {
		t.Fatalf("Laps = %d, want 2", rp.Laps())
	}
	if rp.Len() != 3 {
		t.Fatalf("Len = %d", rp.Len())
	}
	if rp.Name() != "replay" {
		t.Fatal("name")
	}
}

func TestReplayFromStream(t *testing.T) {
	var buf bytes.Buffer
	if err := trace.Write(&buf, []uint64{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplayFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := Take(rp, 3); got[0] != 5 || got[2] != 7 {
		t.Fatalf("Take = %v", got)
	}
}

func TestPhasedErrors(t *testing.T) {
	seq, _ := NewSequential(10)
	if _, err := NewPhased(nil); err == nil {
		t.Error("no phases should error")
	}
	if _, err := NewPhased([]Phase{{Gen: nil, Length: 5}}); err == nil {
		t.Error("nil gen should error")
	}
	if _, err := NewPhased([]Phase{{Gen: seq, Length: 0}}); err == nil {
		t.Error("zero length should error")
	}
}

func TestPhasedSwitching(t *testing.T) {
	a, _ := NewSequential(4)         // emits 0,1,2,3,0,...
	b, _ := NewReplay([]uint64{100}) // emits 100 forever
	p, err := NewPhased([]Phase{
		{Gen: a, Length: 3},
		{Gen: b, Length: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := Take(p, 10)
	want := []uint64{0, 1, 2, 100, 100, 3, 0, 1, 100, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Take = %v, want %v", got, want)
		}
	}
	if p.Switches() != 3 {
		t.Fatalf("Switches = %d, want 3", p.Switches())
	}
	if p.Name() != "phased(2 phases)" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// TestStreamReplayMatchesReplay pins the O(chunk) replay path against the
// materialized one, across the wrap-around boundary.
func TestStreamReplayMatchesReplay(t *testing.T) {
	pages := []uint64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var buf bytes.Buffer
	if err := trace.Write(&buf, pages); err != nil {
		t.Fatal(err)
	}

	mat, err := NewReplay(pages)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReplay(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Len() != len(pages) {
		t.Fatalf("Len = %d, want %d", sr.Len(), len(pages))
	}

	// Three laps, drawn with a mix of Next and NextBatch.
	n := 3 * len(pages)
	want := Take(mat, n)
	got := make([]uint64, 0, n)
	batch := make([]uint64, 5)
	for len(got) < n {
		if len(got)%2 == 0 && n-len(got) >= len(batch) {
			sr.NextBatch(batch)
			got = append(got, batch...)
		} else {
			got = append(got, sr.Next())
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d = %d, want %d", i, got[i], want[i])
		}
	}
	if sr.Laps() < 2 {
		t.Fatalf("expected ≥2 laps, got %d", sr.Laps())
	}
	if sr.Err() != nil {
		t.Fatalf("unexpected stream error: %v", sr.Err())
	}
}

// BenchmarkReplayStream measures the O(chunk) replay path: -benchmem
// shows allocations bounded by the decode chunk, independent of the
// recording length.
func BenchmarkReplayStream(b *testing.B) {
	pages := make([]uint64, 1<<20)
	v := uint64(0)
	for i := range pages {
		v = v*6364136223846793005 + 1442695040888963407
		pages[i] = v % (1 << 24)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, pages); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	batch := make([]uint64, 1<<14)
	b.SetBytes(int64(8 * len(pages)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr, err := NewStreamReplay(bytes.NewReader(enc), 0)
		if err != nil {
			b.Fatal(err)
		}
		for drawn := 0; drawn < len(pages); drawn += len(batch) {
			sr.NextBatch(batch)
		}
	}
}

// BenchmarkReplayMaterialized is the same replay through the one-shot
// trace.Read + Replay, for the O(trace) allocation comparison.
func BenchmarkReplayMaterialized(b *testing.B) {
	pages := make([]uint64, 1<<20)
	v := uint64(0)
	for i := range pages {
		v = v*6364136223846793005 + 1442695040888963407
		pages[i] = v % (1 << 24)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, pages); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	batch := make([]uint64, 1<<14)
	b.SetBytes(int64(8 * len(pages)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp, err := NewReplayFrom(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		for drawn := 0; drawn < len(pages); drawn += len(batch) {
			rp.NextBatch(batch)
		}
	}
}
