package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"addrxlat/internal/experiments"
	"addrxlat/internal/faultinject"
)

var _ experiments.Cache = (*Cache)(nil)

func TestRoundTrip(t *testing.T) {
	c, err := Open(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("hit on an empty cache")
	}
	want := []byte(`{"IOs":3,"TLBMisses":5,"DecodingMisses":7,"Accesses":11}`)
	c.Put("cell|a", want)
	got, ok := c.Get("cell|a")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	if _, ok := c.Get("cell|b"); ok {
		t.Fatal("hit for a key that was never Put")
	}
}

// TestBlobRoundTrip: values are opaque — empty, binary, non-UTF-8 and
// large values come back byte for byte.
func TestBlobRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xff, 0x00, '"', '\\'}, 1<<14)
	for i, want := range [][]byte{{}, {0}, []byte("\xfe\xff|key|\n"), big} {
		key := fmt.Sprintf("serve|%d", i)
		c.Put(key, want)
		got, ok := c.Get(key)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("value %d: Get = %d bytes, %v; want %d bytes", i, len(got), ok, len(want))
		}
	}
}

// entryPath returns the single entry file of a fresh cache.
func entryPath(t *testing.T, c *Cache) string {
	t.Helper()
	entries, err := os.ReadDir(c.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() {
			files = append(files, e.Name())
		}
	}
	if len(files) != 1 {
		t.Fatalf("expected 1 entry file, got %d", len(files))
	}
	return filepath.Join(c.Dir(), files[0])
}

// quarantined returns how many files sit in the quarantine directory.
func quarantined(t *testing.T, c *Cache) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(c.Dir(), QuarantineDir))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// editEntry rewrites one field of the cache's single entry, leaving its
// checksum as it was.
func editEntry(t *testing.T, c *Cache, field string, val any) {
	t.Helper()
	path := entryPath(t, c)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw[field] = val
	data, _ = json.Marshal(raw)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCollisionGuard verifies a file whose stored key disagrees with the
// lookup key (hash collision, hand-edited entry) reads as a miss and is
// quarantined.
func TestCollisionGuard(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put("cell|a", []byte("1"))
	editEntry(t, c, "key", "cell|other")
	if _, ok := c.Get("cell|a"); ok {
		t.Fatal("mismatched stored key was served as a hit")
	}
	if quarantined(t, c) != 1 {
		t.Fatal("mismatched entry was not quarantined")
	}
}

// TestCorruptEntryQuarantined covers the bit-rot path: an entry whose
// value was altered (valid JSON, stale checksum) must quarantine, count
// as corrupt, and be recomputable via a fresh Put.
func TestCorruptEntryQuarantined(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"IOs":42}`)
	c.Put("cell|a", want)
	editEntry(t, c, "blob", []byte(`{"IOs":9999}`)) // without fixing the checksum
	if _, ok := c.Get("cell|a"); ok {
		t.Fatal("checksum-failing entry was served as a hit")
	}
	if _, _, corrupt := c.Stats(); corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", corrupt)
	}
	if quarantined(t, c) != 1 {
		t.Fatal("corrupt entry was not quarantined")
	}
	// The result is recomputable: a fresh Put serves again.
	c.Put("cell|a", want)
	if got, ok := c.Get("cell|a"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("recomputed entry Get = %q, %v", got, ok)
	}
}

// TestBlobCorruptQuarantined flips one raw byte of the stored file: the
// entry must not be served, whichever field the flip lands in.
func TestBlobCorruptQuarantined(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", []byte("payload"))
	p := c.path("k")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("corrupt entry served")
	}
	q, err := filepath.Glob(filepath.Join(dir, QuarantineDir, "*"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine holds %d files (err %v), want 1", len(q), err)
	}
	if _, _, corrupt := c.Stats(); corrupt != 1 {
		t.Fatalf("corrupt count %d, want 1", corrupt)
	}
}

// TestTruncatedEntryQuarantined covers the torn-write path via fault
// injection: a Put truncated mid-write (unparsable JSON) must read back as
// a quarantined miss, never an error.
func TestTruncatedEntryQuarantined(t *testing.T) {
	defer faultinject.Disarm()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm("cache-truncate=cell|a"); err != nil {
		t.Fatal(err)
	}
	c.Put("cell|a", []byte(`{"IOs":5}`))
	faultinject.Disarm()
	if _, ok := c.Get("cell|a"); ok {
		t.Fatal("truncated entry was served as a hit")
	}
	if _, _, corrupt := c.Stats(); corrupt != 1 {
		t.Fatalf("corrupt count = %d, want 1", corrupt)
	}
	if quarantined(t, c) != 1 {
		t.Fatal("truncated entry was not quarantined")
	}
}

// TestBlobTruncateFault: a rule limited to its first hit truncates only
// the first write of the key; the next Put lands whole and hits.
func TestBlobTruncateFault(t *testing.T) {
	if err := faultinject.Arm("cache-truncate=kblob@1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Disarm()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("some longer payload so truncation breaks the JSON")
	c.Put("kblob", want)
	if _, ok := c.Get("kblob"); ok {
		t.Fatal("truncated entry served")
	}
	c.Put("kblob", want)
	if got, ok := c.Get("kblob"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("second write Get = %q, %v; want it whole", got, ok)
	}
	if _, _, corrupt := c.Stats(); corrupt != 1 {
		t.Fatalf("corrupt count %d, want 1", corrupt)
	}
}

// TestOlderCellEntriesReadAsMisses: a directory written by a version
// that stored mm.Costs cells in their own format, under the hash of the
// bare key, reads those cells as misses — never as corruption — and its
// "blob|" entries, which have this version's format, as hits.
func TestOlderCellEntriesReadAsMisses(t *testing.T) {
	dir := t.TempDir()
	const cellKey, serveKey = "cell|epoch=1|w=bimodal", "serve|epoch=1|alg=z"
	sum := sha256.Sum256([]byte(cellKey))
	older := `{"key":"` + cellKey + `","ios":3,"tlb_misses":5,"decoding_misses":0,"accesses":11,"crc":1}`
	if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(sum[:])+".json"), []byte(older), 0o644); err != nil {
		t.Fatal(err)
	}
	point := []byte(`{"load":0.5}`)
	e := entry{Key: serveKey, Blob: point}
	e.CRC = e.sum()
	data, _ := json.Marshal(e)
	sum = sha256.Sum256([]byte("blob|" + serveKey))
	if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(sum[:])+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(cellKey); ok {
		t.Fatal("an older cell entry was served")
	}
	if got, ok := c.Get(serveKey); !ok || !bytes.Equal(got, point) {
		t.Fatalf("older serve entry Get = %q, %v; want a hit", got, ok)
	}
	if h, m, q := c.Stats(); h != 1 || m != 1 || q != 0 {
		t.Fatalf("Stats = %d hits, %d misses, %d corrupt; want 1, 1, 0", h, m, q)
	}
	if quarantined(t, c) != 0 {
		t.Fatal("an older entry was quarantined")
	}
}

// TestStats checks the hit/miss counters cmd/figures reports at exit:
// lookups before any Put are misses, lookups after are hits.
func TestStats(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if h, m, q := c.Stats(); h != 0 || m != 0 || q != 0 {
		t.Fatalf("fresh cache Stats = %d, %d, %d", h, m, q)
	}
	c.Get("absent")
	c.Put("cell|a", []byte("1"))
	c.Get("cell|a")
	c.Get("cell|a")
	if h, m, q := c.Stats(); h != 2 || m != 1 || q != 0 {
		t.Fatalf("Stats = %d hits, %d misses, %d corrupt; want 2, 1, 0", h, m, q)
	}
}

// TestConcurrentOpenReadWrite hammers one cache directory from two
// goroutines through two independent Cache handles (the same shape as two
// sweeps sharing results/cache), under -race via the Makefile race target.
// Every read must be either a clean miss or the exact value some writer
// put — atomic renames mean torn reads are impossible.
func TestConcurrentOpenReadWrite(t *testing.T) {
	dir := t.TempDir()
	const keys = 32
	const rounds = 200
	value := func(k int) []byte {
		return []byte(fmt.Sprintf(`{"IOs":%d,"TLBMisses":%d,"Accesses":%d}`, k*3, k*5, k+1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Open(dir) // concurrent Open of the same dir
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				k := (r*7 + g*13) % keys
				key := fmt.Sprintf("cell|%d", k)
				if got, ok := c.Get(key); ok && !bytes.Equal(got, value(k)) {
					errs <- fmt.Errorf("goroutine %d read torn value %q for %s", g, got, key)
					return
				}
				c.Put(key, value(k))
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// After the dust settles every key must verify.
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("cell|%d", k)
		if got, ok := c.Get(key); !ok || !bytes.Equal(got, value(k)) {
			t.Fatalf("key %s = %q, %v after concurrent writes", key, got, ok)
		}
	}
	if _, _, corrupt := c.Stats(); corrupt != 0 {
		t.Fatalf("concurrent use quarantined %d entries; writes must be atomic", corrupt)
	}
}
