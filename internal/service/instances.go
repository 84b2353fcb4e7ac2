package service

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
)

// instanceCache builds each distinct instance spec once and shares the
// immutable built instance across all jobs referencing it. Distinct specs
// build concurrently; identical specs single-flight through a per-entry
// sync.Once, so a burst of jobs for a new instance costs one build. Beyond
// the capacity, the least recently used entries are evicted — eviction
// drops only the cache reference, never an instance a running job holds.
type instanceCache struct {
	mu      sync.Mutex
	cap     int
	dataDir string // spooled-container store; "" disables resurrection
	entries map[string]*instanceEntry
	tick    uint64 // recency clock
	metrics *Metrics
}

type instanceEntry struct {
	id   string
	spec InstanceSpec
	once sync.Once
	in   core.Input
	err  error
	// built flips after once completes; guarded by the cache mutex for
	// the listing (the builder goroutine sets it while holding it).
	built    bool
	words    int64
	lastUsed uint64
	uploaded bool
}

func newInstanceCache(cap int, dataDir string, metrics *Metrics) *instanceCache {
	return &instanceCache{cap: cap, dataDir: dataDir,
		entries: make(map[string]*instanceEntry), metrics: metrics}
}

// get returns the built instance for spec, building it on first use. The
// id must be SpecID(spec).
func (c *instanceCache) get(id string, spec InstanceSpec) (core.Input, error) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		if spec.Type == "upload" && len(spec.Data) == 0 {
			// Not in the cache and no bytes to rebuild from. With a data
			// directory, an earlier upload of this id left a spooled
			// container behind — remap it (O(header)) instead of failing,
			// so eviction never loses an out-of-core instance.
			g, rerr := openSpooled(c.dataDir, id)
			if rerr != nil {
				c.mu.Unlock()
				if !errors.Is(rerr, os.ErrNotExist) {
					return core.Input{}, fmt.Errorf("service: spooled instance %q: %v", id, rerr)
				}
				return core.Input{}, fmt.Errorf("service: unknown instance id %q (evicted or never uploaded)", id)
			}
			e = &instanceEntry{id: id, spec: spec, in: core.Input{Graph: g}, uploaded: true}
			e.once.Do(func() {}) // already built; get must not rebuild
			e.built = true
			e.words = instanceWords(e.in)
			c.entries[id] = e
			c.metrics.inc("instances_remapped_total", 1)
		} else {
			e = &instanceEntry{id: id, spec: spec}
			c.entries[id] = e
		}
	}
	// Refresh recency before evicting so a full cache never victimizes
	// the entry being requested.
	c.tick++
	e.lastUsed = c.tick
	if !ok {
		c.evictLocked()
	}
	c.mu.Unlock()

	e.once.Do(func() {
		in, err := BuildInstance(e.spec)
		c.mu.Lock()
		e.in, e.err = in, err
		e.built = true
		if err == nil {
			e.words = instanceWords(in)
			// Uploaded bytes are only needed to build; drop them once
			// the instance exists.
			e.spec.Data = nil
		}
		c.mu.Unlock()
		if err == nil {
			c.metrics.inc("instances_built_total", 1)
		}
	})
	if e.err == nil {
		c.metrics.inc("instance_cache_requests_total", 1)
	}
	return e.in, e.err
}

// put inserts a pre-built instance (uploads).
func (c *instanceCache) put(id string, spec InstanceSpec, in core.Input) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[id]; ok {
		return
	}
	spec.Data = nil
	e := &instanceEntry{id: id, spec: spec, in: in, built: true, words: instanceWords(in), uploaded: true}
	e.once.Do(func() {}) // mark built: get must not rebuild
	c.tick++
	e.lastUsed = c.tick
	c.entries[id] = e
	c.metrics.inc("instances_built_total", 1)
	c.evictLocked()
}

// evictLocked removes least-recently-used entries beyond capacity.
func (c *instanceCache) evictLocked() {
	for len(c.entries) > c.cap {
		var victim *instanceEntry
		for _, e := range c.entries {
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		delete(c.entries, victim.id)
		c.metrics.inc("instances_evicted_total", 1)
	}
}

// InstanceInfo is one row of the GET /v1/instances listing.
type InstanceInfo struct {
	ID       string `json:"id"`
	Type     string `json:"type"`
	N        int    `json:"n,omitempty"`
	M        int    `json:"m,omitempty"`
	Sets     int    `json:"sets,omitempty"`
	Elements int    `json:"elements,omitempty"`
	Words    int64  `json:"words"`
	Uploaded bool   `json:"uploaded,omitempty"`
	Building bool   `json:"building,omitempty"`
	// Mapped marks instances served zero-copy from an mmap'ed binary
	// container (Config.DataDir) rather than from the heap.
	Mapped bool `json:"mapped,omitempty"`
}

// list snapshots the cache, most recently used first.
func (c *instanceCache) list() []InstanceInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	entries := make([]*instanceEntry, 0, len(c.entries))
	for _, e := range c.entries {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].lastUsed > entries[j].lastUsed })
	out := make([]InstanceInfo, 0, len(entries))
	for _, e := range entries {
		if e.built && e.err != nil {
			continue // failed builds linger only until evicted; don't list them
		}
		info := InstanceInfo{ID: e.id, Type: e.spec.Type, Words: e.words,
			Uploaded: e.uploaded, Building: !e.built}
		if g := e.in.Graph; g != nil {
			info.N, info.M, info.Mapped = g.N, g.M(), g.Mapped()
		}
		if cov := e.in.Cover; cov != nil {
			info.Sets, info.Elements = cov.NumSets(), cov.NumElements
		}
		out = append(out, info)
	}
	return out
}
