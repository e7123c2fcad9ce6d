// The shared JobState cache: one entry per distinct job key, built
// once under a per-key singleflight and then read-only, with an LRU
// bound on the memoized noise-trace memory. Grid sweeps repeat a small
// set of jobs thousands of times, so the cache pays each job's
// schedule/phase-table construction exactly once, and each noise trace
// once however many jobs replay it; the byte bound keeps an adversarial
// sweep (thousands of distinct jobs, each with megabytes of recorded
// traces) from growing without limit — cold entries fall off the tail
// and rebuild on the next miss.
package rollout

import (
	"sync"

	"seesaw/internal/cosim"
	"seesaw/internal/telemetry"
)

// DefaultCacheBytes bounds a StateCache's accounted memory unless the
// caller chooses otherwise: 512 MiB holds hundreds of 1024-node jobs
// at the benchmark episode shape and a dozen-plus at the paper's full
// 400-step length.
const DefaultCacheBytes int64 = 512 << 20

// entrySizeFloor is the accounted size of an entry whose job replays
// no noise trace (NoNoiseMemo jobs), and the least a trace is charged:
// the phase tables and schedule are small but not free, and a zero size
// would let unbounded numbers of such entries pile up below the byte
// bound. An entry that replays a trace is charged nothing of its own;
// the trace it shares carries the charge.
const entrySizeFloor int64 = 16 << 10

// StateCache shares cosim.JobState precompute across environments: one
// entry per distinct job key (workload, topology seeds, noise, faults,
// classes), built once and then read-only. A cache is safe for
// concurrent use; Batch hands one cache to every worker's Env so a grid
// sweep pays each job's schedule/phase-table construction exactly once.
//
// The cache is also the JobStates' cosim.TraceStore: a noise trace
// depends only on the seeds, the partition sizes and the per-interval
// draw counts, so jobs that differ in dim, device classes or fault plan
// replay one trace, recorded once under its own key and accounted once.
//
// The cache is bounded: each trace is accounted at its footprint
// (NoiseTrace.Bytes, floored at entrySizeFloor) for as long as a cached
// entry replays it, each trace-free entry at entrySizeFloor, and the
// least-recently-used entries are evicted once the total exceeds the
// byte budget. Eviction only drops the cache's reference — environments
// holding the JobState keep using it; the next miss on that key
// rebuilds. Concurrent misses on one key share a single build
// (singleflight): latecomers block until the builder finishes and see
// its result; concurrent builds needing one trace likewise share its
// recording, so no trace is ever recorded twice while cached.
type StateCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*cacheEntry
	// traces holds the noise traces handed to builds, by trace key.
	traces map[string]*traceEntry
	// LRU list, most recent at head. In-flight entries (still
	// building) live in the map but not in the list, so eviction can
	// never race a build.
	head, tail *cacheEntry

	hits, misses, evictions uint64

	// Telemetry handles, resolved once by SetTelemetry; nil without a
	// hub. The local counters above stay authoritative for Stats.
	hitsM, missesM, evictionsM, bytesM *telemetry.Metric

	// build is the JobState constructor, a seam for the singleflight
	// and eviction tests; nil means cosim.NewJobState.
	build func(cosim.Config) (*cosim.JobState, error)
}

// cacheEntry is one key's slot. ready is closed when st/err are final;
// linked/size/trace are guarded by the cache mutex.
type cacheEntry struct {
	key        string
	st         *cosim.JobState
	err        error
	size       int64
	trace      *traceEntry // the shared trace st replays, if any
	ready      chan struct{}
	prev, next *cacheEntry
	linked     bool
}

// traceEntry is one shared noise trace. ready is closed once tr is
// recorded; refs counts the builds and cached entries holding it and
// size its accounted bytes, both guarded by the cache mutex. The trace
// leaves the cache (and the byte total) with its last holder.
type traceEntry struct {
	key   string
	tr    *cosim.NoiseTrace
	ready chan struct{}
	refs  int
	size  int64
}

// traceLease is the cosim.TraceStore one build sees: it takes a
// reference on the trace the build asks for, which the cache then
// hands to the built entry or releases.
type traceLease struct {
	c  *StateCache
	te *traceEntry
}

// Trace implements cosim.TraceStore: the first build needing key
// records the trace, concurrent and later ones wait for and share it.
func (l *traceLease) Trace(key string, record func() *cosim.NoiseTrace) *cosim.NoiseTrace {
	c := l.c
	c.mu.Lock()
	te, ok := c.traces[key]
	if !ok {
		te = &traceEntry{key: key, ready: make(chan struct{})}
		c.traces[key] = te
	}
	te.refs++
	l.te = te
	c.mu.Unlock()
	if ok {
		<-te.ready
		return te.tr
	}
	tr := record()
	c.mu.Lock()
	te.tr = tr
	te.size = max(tr.Bytes(), entrySizeFloor)
	c.bytes += te.size
	if c.bytesM != nil {
		c.bytesM.Set(float64(c.bytes))
	}
	c.mu.Unlock()
	close(te.ready)
	return tr
}

// releaseLocked drops one reference on te, removing the trace from the
// cache and the byte total with its last holder.
func (c *StateCache) releaseLocked(te *traceEntry) {
	te.refs--
	if te.refs > 0 {
		return
	}
	c.bytes -= te.size
	delete(c.traces, te.key)
}

// NewStateCache returns an empty cache bounded at DefaultCacheBytes.
func NewStateCache() *StateCache { return NewStateCacheBytes(DefaultCacheBytes) }

// NewStateCacheBytes returns an empty cache bounded at maxBytes of
// accounted JobState memory; maxBytes <= 0 means DefaultCacheBytes.
// The newest entry is always retained, so a single job larger than the
// bound still caches (and evicts everything else).
func NewStateCacheBytes(maxBytes int64) *StateCache {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &StateCache{max: maxBytes, entries: map[string]*cacheEntry{}, traces: map[string]*traceEntry{}}
}

// SetTelemetry mirrors the cache's counters into the hub's metric
// registry (seesaw_trace_cache_{hits,misses,evictions}_total and the
// seesaw_trace_cache_bytes gauge). Call before the cache is shared;
// a nil hub is a no-op.
func (c *StateCache) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	reg := h.Registry()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hitsM = reg.Counter("seesaw_trace_cache_hits_total",
		"JobState cache lookups served from a cached entry.").With()
	c.missesM = reg.Counter("seesaw_trace_cache_misses_total",
		"JobState cache lookups that built (or joined a build of) a new entry.").With()
	c.evictionsM = reg.Counter("seesaw_trace_cache_evictions_total",
		"JobState cache entries dropped by the LRU byte bound.").With()
	c.bytesM = reg.Gauge("seesaw_trace_cache_bytes",
		"Accounted bytes of cached JobState precompute (noise traces dominate).").With()
}

// CacheStats is a point-in-time summary of a cache's counters.
type CacheStats struct {
	// Hits and Misses count lookups; a miss that joined another
	// goroutine's in-flight build still counts as a miss (the entry was
	// not yet usable), but no duplicate build ran.
	Hits, Misses uint64
	// Evictions counts entries dropped by the byte bound.
	Evictions uint64
	// Bytes is the currently accounted memory; Entries the live count.
	Bytes   int64
	Entries int
}

// Stats returns the cache's current counters.
func (c *StateCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Bytes: c.bytes, Entries: len(c.entries),
	}
}

// unlink removes e from the LRU list.
func (c *StateCache) unlink(e *cacheEntry) {
	if !e.linked {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	e.linked = false
}

// pushFront makes e the most-recently-used entry.
func (c *StateCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	e.linked = true
}

// evictLocked drops least-recently-used entries until the accounted
// bytes fit the bound, always sparing the head (the entry that just
// missed in — a job larger than the whole bound must still cache).
func (c *StateCache) evictLocked() {
	for c.bytes > c.max && c.tail != nil && c.tail != c.head {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.bytes -= e.size
		if e.trace != nil {
			c.releaseLocked(e.trace)
		}
		c.evictions++
		if c.evictionsM != nil {
			c.evictionsM.Inc()
		}
	}
	if c.bytesM != nil {
		c.bytesM.Set(float64(c.bytes))
	}
}

// state returns the cached JobState for key, building it from cfg on
// first use. Concurrent callers of one key share a single build.
func (c *StateCache) state(key string, cfg cosim.Config) (*cosim.JobState, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.linked {
			c.unlink(e)
			c.pushFront(e)
			c.hits++
			if c.hitsM != nil {
				c.hitsM.Inc()
			}
			c.mu.Unlock()
			return e.st, e.err
		}
		// In-flight: join the build.
		c.misses++
		if c.missesM != nil {
			c.missesM.Inc()
		}
		c.mu.Unlock()
		<-e.ready
		return e.st, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	if c.missesM != nil {
		c.missesM.Inc()
	}
	build := c.build
	c.mu.Unlock()

	if build == nil {
		build = cosim.NewJobState
	}
	lease := &traceLease{c: c}
	cfg.Traces = lease
	st, err := build(cfg)

	c.mu.Lock()
	e.st, e.err = st, err
	shared := err == nil && lease.te != nil && st.NoiseTrace() == lease.te.tr
	if lease.te != nil && !shared {
		c.releaseLocked(lease.te)
	}
	if err != nil {
		// Failed builds do not occupy the cache; the key stays buildable
		// (and re-fails) on the next lookup.
		delete(c.entries, e.key)
	} else {
		if shared {
			e.trace = lease.te
		} else {
			// A trace-free job (or one whose builder recorded its own
			// trace) is charged on its own.
			e.size = max(st.TraceBytes(), entrySizeFloor)
		}
		c.bytes += e.size
		c.pushFront(e)
	}
	c.evictLocked()
	c.mu.Unlock()
	close(e.ready)
	return st, err
}
