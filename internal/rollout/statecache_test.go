package rollout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
)

// countingCache wires the build seam to a counter so tests can observe
// exactly how many JobStates were constructed per key.
func countingCache(maxBytes int64, builds *atomic.Int64, gate chan struct{}) *StateCache {
	c := NewStateCacheBytes(maxBytes)
	c.build = func(cfg cosim.Config) (*cosim.JobState, error) {
		builds.Add(1)
		if gate != nil {
			<-gate
		}
		return cosim.NewJobState(cfg)
	}
	return c
}

// cacheSpec returns a tiny distinct job per index (the Seed forks the
// job key), used to fill a cache with many entries.
func cacheSpec(t *testing.T, i int) Spec {
	t.Helper()
	s := testSpec("", t)
	s.Faults = nil // fault-free jobs record traces, so entries have real sizes
	s.Seed = uint64(100 + i)
	return s
}

// TestStateCacheBound pins the byte bound: filling the cache past its
// budget evicts least-recently-used entries, the accounted bytes stay
// within the bound, and a recently-touched entry survives over a
// colder one.
func TestStateCacheBound(t *testing.T) {
	var builds atomic.Int64
	// Size the bound from one real entry so the test tracks the episode
	// shape: room for two entries plus slack, not three.
	probe := countingCache(0, &builds, nil)
	s0 := cacheSpec(t, 0)
	st0, err := probe.state(s0.jobKey(), s0.cosimConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	one := st0.TraceBytes()
	if one < entrySizeFloor {
		one = entrySizeFloor
	}

	c := countingCache(2*one+one/2, &builds, nil)
	builds.Store(0)
	keys := make([]string, 3)
	for i := range keys {
		s := cacheSpec(t, i)
		keys[i] = s.jobKey()
		if _, err := c.state(keys[i], s.cosimConfig(nil)); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// Touch entry 0 so entry 1 is the LRU victim when 2 lands.
			if _, err := c.state(keys[0], cacheSpec(t, 0).cosimConfig(nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Bytes > 2*one+one/2 {
		t.Fatalf("accounted bytes %d exceed the bound %d", st.Bytes, 2*one+one/2)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("hits/misses = %d/%d, want 1/3", st.Hits, st.Misses)
	}
	// keys[1] was LRU at eviction time: re-requesting it rebuilds,
	// re-requesting the touched keys[0] must not.
	before := builds.Load()
	if _, err := c.state(keys[0], cacheSpec(t, 0).cosimConfig(nil)); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before {
		t.Error("recently-used entry was evicted")
	}
	if _, err := c.state(keys[1], cacheSpec(t, 1).cosimConfig(nil)); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != before+1 {
		t.Error("LRU entry survived past the bound")
	}
}

// TestStateCacheSingleflight pins the get-or-build contract: concurrent
// lookups of one cold key share a single build — no JobState (and so no
// noise trace) is ever recorded twice. Run under -race this also checks
// the handoff publishes the built state safely.
func TestStateCacheSingleflight(t *testing.T) {
	var builds atomic.Int64
	gate := make(chan struct{})
	c := countingCache(0, &builds, gate)
	s := cacheSpec(t, 0)
	key, cfg := s.jobKey(), s.cosimConfig(nil)

	const callers = 8
	states := make([]*cosim.JobState, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			st, err := c.state(key, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			states[i] = st
		}(i)
	}
	close(start)
	close(gate) // release the builder once everyone is racing
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if states[i] != states[0] {
			t.Fatalf("caller %d got a different JobState", i)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses != callers {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, callers)
	}
}

// TestStateCacheErrorNotCached: a failed build leaves the key
// buildable — the next lookup retries instead of replaying the error
// forever.
func TestStateCacheErrorNotCached(t *testing.T) {
	var builds atomic.Int64
	c := NewStateCacheBytes(0)
	boom := errors.New("boom")
	c.build = func(cfg cosim.Config) (*cosim.JobState, error) {
		if builds.Add(1) == 1 {
			return nil, boom
		}
		return cosim.NewJobState(cfg)
	}
	s := cacheSpec(t, 0)
	if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); !errors.Is(err, boom) {
		t.Fatalf("first lookup error = %v, want boom", err)
	}
	if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if builds.Load() != 2 {
		t.Fatalf("%d builds, want 2 (fail, then retry)", builds.Load())
	}
}

// TestStateCacheTelemetry: with a hub attached the cache mirrors its
// counters into the metric registry the -cache-stats flag reads.
func TestStateCacheTelemetry(t *testing.T) {
	hub := telemetry.New(telemetry.Options{})
	var builds atomic.Int64
	c := countingCache(1, &builds, nil) // 1-byte bound: every insert evicts the previous entry
	c.SetTelemetry(hub)
	for i := 0; i < 3; i++ {
		s := cacheSpec(t, i)
		if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
			t.Fatal(err)
		}
	}
	s := cacheSpec(t, 2) // newest entry is retained: this is a hit
	if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	reg := hub.Registry()
	for _, row := range []struct {
		name string
		want float64
	}{
		{"seesaw_trace_cache_hits_total", float64(st.Hits)},
		{"seesaw_trace_cache_misses_total", float64(st.Misses)},
		{"seesaw_trace_cache_evictions_total", float64(st.Evictions)},
		{"seesaw_trace_cache_bytes", float64(st.Bytes)},
	} {
		var got float64
		if row.name == "seesaw_trace_cache_bytes" {
			got = reg.Gauge(row.name, "").With().Value()
		} else {
			got = reg.Counter(row.name, "").With().Value()
		}
		if got != row.want {
			t.Errorf("%s = %g, want %g", row.name, got, row.want)
		}
	}
	if st.Hits != 1 || st.Evictions == 0 {
		t.Errorf("stats %+v: want 1 hit and nonzero evictions", st)
	}
}

// TestStateCacheSharedAcrossBatches: a caller-supplied cache carries
// its entries (and stats) across Batch invocations. The job is built
// exactly once, and the second batch's fresh worker Envs are served
// from the cache without a miss. (The first batch's miss count is 1 or
// 2: with one cell per point, a second worker may join the in-flight
// build, which CacheStats counts as a miss.)
func TestStateCacheSharedAcrossBatches(t *testing.T) {
	points, err := Grid{Nodes: []int{8}, Steps: 8, Policies: []string{"seesaw", "time-aware"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cache := NewStateCache()
	var builds atomic.Int64
	cache.build = func(cfg cosim.Config) (*cosim.JobState, error) {
		builds.Add(1)
		return cosim.NewJobState(cfg)
	}
	var first CacheStats
	for round := 0; round < 2; round++ {
		if _, err := Batch(context.Background(), points, Options{Cache: cache, Jobs: 2}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round == 0 {
			first = cache.Stats()
		}
	}
	st := cache.Stats()
	if st.Entries != 1 {
		t.Fatalf("%d cache entries for one job, want 1", st.Entries)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("%d JobState builds across two batches of one job, want 1 (stats: %+v)", n, st)
	}
	if st.Misses != first.Misses || st.Hits == first.Hits {
		t.Errorf("second batch: %d misses, %d hits; want no misses and some hits (stats: %+v)",
			st.Misses-first.Misses, st.Hits-first.Hits, st)
	}
}

// TestStateCacheKeyIndependence sanity-checks the size accounting used
// above: distinct jobs get distinct entries and the accounted bytes
// grow with each.
func TestStateCacheKeyIndependence(t *testing.T) {
	c := NewStateCache()
	var last int64
	for i := 0; i < 3; i++ {
		s := cacheSpec(t, i)
		if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if st.Entries != i+1 {
			t.Fatalf("after %d inserts: %d entries", i+1, st.Entries)
		}
		if st.Bytes <= last {
			t.Fatalf("bytes did not grow: %d -> %d", last, st.Bytes)
		}
		last = st.Bytes
	}
	if c.Stats().Evictions != 0 {
		t.Error("evictions under an unfilled default bound")
	}
	// Keys must fork on the memo flag so live and replayed JobStates
	// never share an entry.
	s := cacheSpec(t, 0)
	memoKey := s.jobKey()
	s.NoNoiseMemo = true
	if s.jobKey() == memoKey {
		t.Error("NoNoiseMemo does not fork the job key")
	}
	if want := memoKey + "/nomemo"; s.jobKey() != want {
		t.Errorf("nomemo key = %q, want %q", s.jobKey(), want)
	}
}

// TestStateCacheSharesTraces pins trace sharing: jobs differing only in
// fault plan and device classes record one noise trace between them,
// and the cache accounts that trace once — their entries add nothing
// of their own. The concurrent round has every job miss at once, so
// the builds race for the one recording.
func TestStateCacheSharesTraces(t *testing.T) {
	var specs []Spec
	for _, fp := range []string{"", "kill:2@4", "slow:5@3x2+4"} {
		for _, cs := range []string{"", "0-1:gpu,4-5:gpu"} {
			s := cacheSpec(t, 0)
			var err error
			if s.Faults, err = fault.Parse(fp); err != nil {
				t.Fatal(err)
			}
			if s.Classes, err = machine.ParseClassMap(cs); err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
	}
	for _, concurrent := range []bool{false, true} {
		var builds atomic.Int64
		c := countingCache(0, &builds, nil)
		var mu sync.Mutex
		traces := map[*cosim.NoiseTrace]bool{}
		build := c.build
		c.build = func(cfg cosim.Config) (*cosim.JobState, error) {
			st, err := build(cfg)
			if err == nil {
				mu.Lock()
				traces[st.NoiseTrace()] = true
				mu.Unlock()
			}
			return st, err
		}
		var wg sync.WaitGroup
		for _, s := range specs {
			lookup := func() {
				defer wg.Done()
				if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
					t.Error(err)
				}
			}
			wg.Add(1)
			if concurrent {
				go lookup()
			} else {
				lookup()
			}
		}
		wg.Wait()
		if n := builds.Load(); n != int64(len(specs)) {
			t.Fatalf("concurrent=%t: %d JobState builds, want %d", concurrent, n, len(specs))
		}
		if len(traces) != 1 || traces[nil] {
			t.Fatalf("concurrent=%t: %d distinct traces recorded (nil among them: %t), want 1", concurrent, len(traces), traces[nil])
		}
		var one int64
		for tr := range traces {
			one = tr.Bytes()
		}
		if one <= entrySizeFloor {
			t.Fatalf("trace of %d bytes does not exceed the %d-byte floor; the byte check below would not be exact", one, entrySizeFloor)
		}
		if st := c.Stats(); st.Bytes != one || st.Entries != len(specs) {
			t.Errorf("concurrent=%t: stats %+v, want %d entries accounted at the one trace's %d bytes", concurrent, st, len(specs), one)
		}
	}
}

// TestStateCacheSharedTraceEviction: a shared trace stays accounted
// while any cached entry replays it and leaves the byte total with its
// last holder.
func TestStateCacheSharedTraceEviction(t *testing.T) {
	spec := func(seed uint64, fp string) Spec {
		s := cacheSpec(t, 0)
		s.Seed = seed
		var err error
		if s.Faults, err = fault.Parse(fp); err != nil {
			t.Fatal(err)
		}
		return s
	}
	probe := NewStateCache()
	a := spec(100, "")
	st, err := probe.state(a.jobKey(), a.cosimConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	one := st.TraceBytes()

	// Room for one trace: the second seed's trace evicts both holders
	// of the first, least recent first.
	c := NewStateCacheBytes(one + one/2)
	for _, s := range []Spec{spec(100, ""), spec(100, "kill:2@4")} {
		if _, err := c.state(s.jobKey(), s.cosimConfig(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Bytes != one || st.Entries != 2 {
		t.Fatalf("two holders of one trace: %+v, want 2 entries at %d bytes", st, one)
	}
	b := spec(200, "")
	if _, err := c.state(b.jobKey(), b.cosimConfig(nil)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Bytes != one || st.Entries != 1 || st.Evictions != 2 {
		t.Errorf("after a second trace: %+v, want 1 entry at %d bytes and 2 evictions", st, one)
	}
}
