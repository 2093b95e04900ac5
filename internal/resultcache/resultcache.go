// Package resultcache is a content-addressed on-disk cache for finished
// experiment results. The experiments look each result up by its
// canonical key before computing it — a Figure 1 or Crossover cell, a
// serve sweep point — and a hit is guaranteed to reproduce the same table
// because the key covers everything that determines the result (see
// experiments.Cache). Values are opaque bytes; the experiments store
// JSON.
//
// Entries are one JSON file per key under the cache directory, named by
// the SHA-256 of "blob|" + key. The full key is stored inside the entry
// along with a CRC-32C over the key and value and is verified on load,
// so a hash collision, a hand-edited file, or a torn/bit-rotted entry
// degrades to a miss, never to wrong numbers. Entries that fail
// verification are moved into <dir>/quarantine/ (preserving the evidence
// for a post-mortem) and recomputed; the corrupt count is surfaced
// through Stats and the run manifests.
//
// Older versions also stored mm.Costs cells in a second format, under
// the SHA-256 of the bare key. This version never opens those files, so
// a directory they wrote reads as misses for those cells and as hits for
// its "blob|" entries — never as corruption.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"addrxlat/internal/faultinject"
)

// QuarantineDir is the subdirectory of the cache that verification
// failures are moved into.
const QuarantineDir = "quarantine"

// Cache is a directory of cached results. The zero value is unusable;
// Open it. Get/Put are safe for concurrent use (writes go through an
// atomic rename), matching the experiments.Cache contract.
type Cache struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
}

// Open creates the cache directory if needed and returns the cache.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return c.dir }

// Stats returns how many Get lookups hit, missed, and quarantined a
// corrupt entry since Open. Safe for concurrent use; sweeps snapshot it
// per experiment to attribute traffic. Corrupt lookups are also counted
// as misses (the result is recomputed either way).
func (c *Cache) Stats() (hits, misses, corrupt uint64) {
	return c.hits.Load(), c.misses.Load(), c.corrupt.Load()
}

// entry is the on-disk format. Key keeps the entry self-describing (and
// guards against collisions); CRC is a CRC-32C over key|value, so
// corruption of any field — including a truncated or bit-flipped file
// that still parses as JSON — is detected on load.
type entry struct {
	Key  string `json:"key"`
	Blob []byte `json:"blob"` // the value (base64 in the JSON encoding)
	CRC  uint32 `json:"crc"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func (e entry) sum() uint32 {
	return crc32.Checksum(append(append([]byte(e.Key), '|'), e.Blob...), crcTable)
}

// path maps a canonical key to its content-addressed file.
func (c *Cache) path(key string) string {
	sum := sha256.Sum256([]byte("blob|" + key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".json")
}

// Get implements experiments.Cache. Unreadable files are misses;
// unparsable, mismatched, or checksum-failing entries are quarantined
// misses.
func (c *Cache) Get(key string) ([]byte, bool) {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key || e.CRC != e.sum() {
		c.quarantine(path)
		c.corrupt.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.Blob, true
}

// quarantine moves a failed entry into the quarantine subdirectory so it
// cannot be served again but stays inspectable. Best effort: if the move
// fails the entry is deleted instead (serving it again would repeat the
// verification failure forever).
func (c *Cache) quarantine(path string) {
	qdir := filepath.Join(c.dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			return
		}
	}
	os.Remove(path)
}

// Put implements experiments.Cache. The write is atomic (temp file +
// rename) so concurrent sweeps and interrupted runs never leave a torn
// entry; failures are silently dropped — a broken cache must not fail an
// experiment. A fired cache-truncate fault (matched against key)
// simulates a torn write (crash mid-write, full disk): the entry lands
// truncated and must be quarantined on the next read.
func (c *Cache) Put(key string, val []byte) {
	e := entry{Key: key, Blob: val}
	e.CRC = e.sum()
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	if faultinject.Armed() && faultinject.Fire(faultinject.CacheTruncate, key) {
		data = data[:len(data)/2]
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}
