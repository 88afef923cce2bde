package metrics

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Counters is a named-counter registry: the single place runtime
// subsystems (the sweep orchestrator, each serving tenant) publish
// their observability counters, so a run's issue depth and backpressure
// can be read off one snapshot instead of per-component accessors. All
// methods are safe for concurrent use.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty registry.
func NewCounters() *Counters { return &Counters{m: map[string]int64{}} }

// Add accumulates delta into the named counter, creating it at zero
// first. A nil registry ignores the call, so publishers need no nil
// guards.
func (c *Counters) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Set overwrites the named counter (for gauges like the current issue
// width). A nil registry ignores the call.
func (c *Counters) Set(name string, v int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m[name] = v
	c.mu.Unlock()
}

// Get returns the named counter's value (0 when absent or nil).
func (c *Counters) Get(name string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of every counter, for stable iteration and
// assertions.
func (c *Counters) Snapshot() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Reset drops every counter, returning the registry to empty. Useful
// between sweep repetitions so per-run snapshots don't accumulate. A
// nil registry ignores the call.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.m = map[string]int64{}
	c.mu.Unlock()
}

// WriteTo renders every counter as "name value\n" lines in sorted name
// order — the canonical text form the cmds print and the debug server
// serves. A nil registry writes nothing. Implements io.WriterTo.
func (c *Counters) WriteTo(w io.Writer) (int64, error) {
	var total int64
	snap := c.Snapshot()
	for _, name := range c.Names() {
		n, err := fmt.Fprintf(w, "%s %d\n", name, snap[name])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Names returns the registered counter names in sorted order.
func (c *Counters) Names() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
