package service

import (
	"sync"

	"joss/internal/dag"
	"joss/internal/obs"
	"joss/internal/workloads"
)

// graphBudgetTasks bounds the tasks a session's graph cache keeps
// resident (about 160 B each once built, edges included). It holds the
// whole Figure 8 grid at scale 0.2 (162,217 tasks) three times over. A
// single graph larger than the budget — the wire accepts scales up to
// 100 — is still built once and shared: it evicts everything else, and
// the next build evicts it.
const graphBudgetTasks = 1 << 19

// graphCache is the session's ⟨workload name, scale⟩ → built DAG
// cache. Each graph is built once (single-flight: concurrent misses on
// one key wait for the first builder), has its BaseState computed
// before it is published, and is then only ever read — by any number
// of workers at once, since runs keep their task state in the runtime.
// Eviction is least-recently-used under graphBudgetTasks and only
// drops the map entry: units already holding the pointer finish on
// it, and the collector frees the graph once the last one does.
type graphCache struct {
	budget int // graphBudgetTasks; smaller only in tests

	mu      sync.Mutex
	entries map[costKey]*graphEntry
	tasks   int    // tasks of the built entries in the map
	clock   uint64 // LRU stamp source

	builds, hits, evictions *obs.Counter
}

type graphEntry struct {
	ready chan struct{} // closed once g is set
	g     *dag.Graph
	tasks int    // 0 while building
	used  uint64 // clock at the last lookup
}

// newGraphCache builds an empty cache whose counters are registered as
// joss_service_graph_*_total on r (unregistered when r is nil).
func newGraphCache(r *obs.Registry) *graphCache {
	c := &graphCache{budget: graphBudgetTasks, entries: make(map[costKey]*graphEntry)}
	if r == nil {
		c.builds, c.hits, c.evictions = new(obs.Counter), new(obs.Counter), new(obs.Counter)
		return c
	}
	c.builds = r.NewCounter("joss_service_graph_builds_total", "Workload DAGs built into the session graph cache.", nil)
	c.hits = r.NewCounter("joss_service_graph_hits_total", "Graph cache lookups served by an already built (or building) DAG.", nil)
	c.evictions = r.NewCounter("joss_service_graph_evictions_total", "Graphs dropped from the cache to stay within its task budget.", nil)
	return c
}

// get returns the shared, read-only graph of wl at scale, building it
// on the first lookup. A hit allocates nothing.
func (c *graphCache) get(wl workloads.Config, scale float64) *dag.Graph {
	k := costKey{wl.Name, scale}
	c.mu.Lock()
	c.clock++
	if e, ok := c.entries[k]; ok {
		e.used = c.clock
		c.mu.Unlock()
		c.hits.Inc()
		<-e.ready
		return e.g
	}
	e := &graphEntry{ready: make(chan struct{}), used: c.clock}
	c.entries[k] = e
	c.mu.Unlock()

	c.builds.Inc()
	g := wl.Build(scale)
	g.BaseState() // the only lazily written state: fill it while private

	c.mu.Lock()
	e.g, e.tasks = g, g.NumTasks()
	c.tasks += e.tasks
	for c.tasks > c.budget && c.evictLRU(e) {
	}
	c.mu.Unlock()
	close(e.ready)
	return g
}

// evictLRU drops the least recently used built entry other than keep,
// reporting whether there was one. Called with c.mu held.
func (c *graphCache) evictLRU(keep *graphEntry) bool {
	var victimKey costKey
	var victim *graphEntry
	for k, e := range c.entries {
		if e != keep && e.tasks > 0 && (victim == nil || e.used < victim.used) {
			victimKey, victim = k, e
		}
	}
	if victim == nil {
		return false
	}
	delete(c.entries, victimKey)
	c.tasks -= victim.tasks
	c.evictions.Inc()
	return true
}
