package orchestrator

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// CacheStats are a Cache's cumulative counters. Hits include disk
// loads; Spills/Loads count disk traffic only.
type CacheStats struct {
	Hits, Misses int64
	// Spills counts entries written to the disk directory; Loads counts
	// entries faulted back in from it.
	Spills, Loads int64
}

type cacheEntry struct {
	canon []byte
	val   any
}

// diskEntry is the gob-encoded spill format: the canonical config
// rides along so a loaded entry can be collision-checked exactly like
// a memory hit.
type diskEntry struct {
	Canon []byte
	Value any
}

// Cache is the content-addressed stage store: an in-memory map from
// stage Key to output, with an optional disk-spill directory that
// persists marked entries across processes. Every lookup re-presents
// the canonical configuration bytes, and a key whose stored canon
// differs is rejected rather than served — a defence-in-depth contract
// that turns a hash collision (or a canonicalisation bug) into a loud
// error instead of silently reusing the wrong stage output.
//
// Values handed out by Get are shared: consumers must treat them as
// read-only.
type Cache struct {
	mu    sync.Mutex
	mem   map[Key]cacheEntry
	dir   string
	stats CacheStats
}

// NewCache returns a stage cache. dir == "" keeps the cache purely in
// memory; otherwise marked entries spill to dir (created on demand) and
// later caches constructed over the same dir can fault them back in.
func NewCache(dir string) *Cache {
	return &Cache{mem: map[Key]cacheEntry{}, dir: dir}
}

// Register makes a concrete output type encodable for disk spill
// (wrapping gob.Register so callers need not import encoding/gob).
func Register(v any) { gob.Register(v) }

// ErrKeyCollision reports a lookup or store whose canonical
// configuration disagrees with the entry already held under the key.
var ErrKeyCollision = errors.New("orchestrator: stage key collision (canonical configs differ)")

func (c *Cache) path(k Key) string { return filepath.Join(c.dir, k.String()+".stage") }

// CacheSource tells a lookup's provenance apart — the trace annotation
// that distinguishes a warm in-memory hit from a disk fault-in.
type CacheSource int

const (
	// CacheMiss: the key is not cached anywhere.
	CacheMiss CacheSource = iota
	// CacheMemory: served from the in-memory map (a warm hit).
	CacheMemory
	// CacheDisk: faulted in from the spill directory.
	CacheDisk
)

// Get returns the cached output for k, consulting memory and then the
// spill directory. canon must be the stage's canonical bytes; a stored
// entry with a different canon returns ErrKeyCollision.
func (c *Cache) Get(k Key, canon []byte) (any, bool, error) {
	v, src, err := c.GetSourced(k, canon)
	return v, src != CacheMiss, err
}

// GetSourced is Get reporting where the hit came from, so observers
// can annotate warm hits differently from disk fault-ins.
func (c *Cache) GetSourced(k Key, canon []byte) (any, CacheSource, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[k]; ok {
		if string(e.canon) != string(canon) {
			return nil, CacheMiss, fmt.Errorf("%w: key %s", ErrKeyCollision, k)
		}
		c.stats.Hits++
		return e.val, CacheMemory, nil
	}
	if c.dir != "" {
		v, ok, err := c.load(k, canon)
		if err != nil {
			return nil, CacheMiss, err
		}
		if ok {
			return v, CacheDisk, nil
		}
	}
	c.stats.Misses++
	return nil, CacheMiss, nil
}

// load faults a spilled entry in from disk (caller holds the lock). A
// spill that does not decode — truncated by a killed writer, or
// damaged on disk — is renamed to <key>.stage.corrupt and reported as
// a miss, so the stage is recomputed and re-spilled instead of failing
// the whole sweep.
func (c *Cache) load(k Key, canon []byte) (any, bool, error) {
	path := c.path(k)
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("orchestrator: opening spilled stage %s: %w", k, err)
	}
	var de diskEntry
	err = gob.NewDecoder(f).Decode(&de)
	f.Close()
	if err != nil {
		if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
			return nil, false, fmt.Errorf("orchestrator: quarantining undecodable spilled stage %s (%v): %w", k, err, rerr)
		}
		return nil, false, nil
	}
	if string(de.Canon) != string(canon) {
		return nil, false, fmt.Errorf("%w: spilled key %s", ErrKeyCollision, k)
	}
	c.mem[k] = cacheEntry{canon: de.Canon, val: de.Value}
	c.stats.Loads++
	c.stats.Hits++
	return de.Value, true, nil
}

// Put stores a stage output under k. spill additionally persists it to
// the cache directory (atomically, via rename) when one is configured.
// Storing a different canon under an existing key is rejected.
func (c *Cache) Put(k Key, canon []byte, v any, spill bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[k]; ok && string(e.canon) != string(canon) {
		return fmt.Errorf("%w: key %s", ErrKeyCollision, k)
	}
	c.mem[k] = cacheEntry{canon: append([]byte(nil), canon...), val: v}
	if !spill || c.dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("orchestrator: creating cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, "spill-*")
	if err != nil {
		return fmt.Errorf("orchestrator: spilling stage %s: %w", k, err)
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(diskEntry{Canon: canon, Value: v}); err != nil {
		tmp.Close()
		return fmt.Errorf("orchestrator: encoding stage %s: %w", k, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("orchestrator: spilling stage %s: %w", k, err)
	}
	if err := os.Rename(tmp.Name(), c.path(k)); err != nil {
		return fmt.Errorf("orchestrator: spilling stage %s: %w", k, err)
	}
	c.stats.Spills++
	return nil
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
