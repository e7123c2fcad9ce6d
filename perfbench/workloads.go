package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"seesaw/internal/core"
	"seesaw/internal/insitu"
	"seesaw/internal/lammps"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/rollout"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// workload is one named benchmark input set with its two run modes.
type workload struct {
	untraced func(ctx context.Context, cfg runConfig, prov *provenance) (report, error)
	traced   func(ctx context.Context, cfg runConfig, prov *provenance) (report, error)
}

// Why each workload exists (BENCHMARK.json carries the one-line form):
//
//   - search-1024: one 1024-node job under every registered policy. The
//     per-window kernel dominates, the noise memo replays, lanes are off
//     (automatic width 1 at 1024 nodes) and no JobState is built in the
//     timed phase.
//   - search-mixed-256: twelve 128/256-node jobs across fault plans and
//     class maps with little sharing per job, so JobState builds,
//     per-worker episode rebuilds, lanes, the live-RNG faulted path and
//     the capability-weighted waterfill all carry weight.
//   - search-telemetry-128: every spec is instrumented, so episodes take
//     the one-shot cosim.Run path with per-node hooks; no other workload
//     executes telemetry.
//   - insitu-1024: the goroutine-per-rank driver (mini-MD, analyses, mpi
//     rendezvous, PoLiMER); it bypasses cosim, StateCache, lanes and
//     rollout entirely.
var workloads = map[string]workload{
	"search-1024":          {untraced: searchUntraced(search1024), traced: searchTraced(search1024)},
	"search-mixed-256":     {untraced: searchUntraced(searchMixed256), traced: searchTraced(searchMixed256)},
	"search-telemetry-128": {untraced: searchUntraced(searchTelemetry128), traced: searchTraced(searchTelemetry128)},
	"insitu-1024":          {untraced: insituUntraced, traced: insituTraced},
}

// A search run times at least minSetupReps cold passes, more while they
// have taken less than setupSeconds in all (up to maxSetupReps), so a
// cheap cold pass still yields a steady median; an in-situ run times
// insituSetupReps warm-up jobs. setup_s is the median.
const (
	minSetupReps    = 5
	maxSetupReps    = 25
	setupSeconds    = 1.0
	insituSetupReps = 3
)

// seedRand is the benchmark's own splitmix64 stream, so inputs depend
// only on the seed and the workload name, never on program code.
type seedRand struct{ s uint64 }

func newSeedRand(seed uint64, label string) *seedRand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return &seedRand{s: seed ^ h.Sum64()}
}

func (r *seedRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *seedRand) intn(n int) int { return int(r.next() % uint64(n)) }

// jobSeed returns a non-zero job seed.
func (r *seedRand) jobSeed() uint64 { return 2 + r.next()%1_000_000 }

// halfWatts returns lo plus a random multiple of 0.5 W below span.
func (r *seedRand) halfWatts(lo float64, span int) units.Watts {
	return units.Watts(lo + 0.5*float64(r.intn(2*span)))
}

var (
	allPolicies   = []string{"static", "seesaw", "time-aware", "power-aware", "bandit"}
	fixedPolicies = []string{"static", "seesaw", "time-aware", "power-aware"}
	allAnalyses   = []string{"rdf", "vacf", "msd", "msd1d", "msd2d"}
)

// Cap range of the homogeneous default node, as every search and in-situ
// job here configures it.
const (
	minCap = 98
	maxCap = 215
)

// searchInput is one search workload's generated grid.
type searchInput struct {
	points []rollout.Point
	// sink counts the JSONL bytes and events of instrumented points.
	sink *countingSink
}

type searchGen func(seed uint64, tiny bool) (searchInput, error)

// search1024 is a seesawctl-search-shaped grid over one 1024-node job:
// budgets x windows x all five registered policies.
func search1024(seed uint64, tiny bool) (searchInput, error) {
	r := newSeedRand(seed, "search-1024")
	nodes, steps, nb := 1024, 400, 4
	windows := []int{1, 2}
	if tiny {
		nodes, steps, nb, windows = 16, 40, 2, windows[:1]
	}
	budgets := make([]units.Watts, nb)
	for k := range budgets {
		budgets[k] = r.halfWatts(100+7*float64(k), 2)
	}
	pts, err := rollout.Grid{
		Nodes: []int{nodes}, Budgets: budgets, Windows: windows, Dims: []int{16},
		Policies: allPolicies, Steps: steps, Seed: r.jobSeed(),
	}.Expand()
	return searchInput{points: pts}, err
}

// searchMixed256 crosses 128 and 256 nodes with three fault plans, two
// class maps and two budgets under the four fixed policies: twelve jobs of
// eight points each.
func searchMixed256(seed uint64, tiny bool) (searchInput, error) {
	r := newSeedRand(seed, "search-mixed-256")
	sizes, steps, lo := []int{128, 256}, 400, 128
	if tiny {
		sizes, steps, lo = []int{16, 32}, 40, 16
	}
	syncs := steps / 8
	kill := fmt.Sprintf("kill:%d@%d", r.intn(lo), 2+r.intn(syncs))
	slow := fmt.Sprintf("slow:%d@%dx2+%d", r.intn(lo), 2+r.intn(syncs), 2+r.intn(syncs))
	w := lo / 4
	a, b := r.intn(lo/4), lo/2+r.intn(lo/4)
	mixed := fmt.Sprintf("%d-%d:gpu,%d-%d:gpu", a, a+w-1, b, b+w-1)
	pts, err := rollout.Grid{
		Nodes:   sizes,
		Budgets: []units.Watts{r.halfWatts(110, 2), r.halfWatts(118, 2)},
		Dims:    []int{12}, Faults: []string{"", kill, slow}, Classes: []string{"", mixed},
		Policies: fixedPolicies, Steps: steps, Seed: r.jobSeed(),
	}.Expand()
	return searchInput{points: pts}, err
}

// searchTelemetry128 is a 128-node budgets x windows x four-policy grid
// in which every spec carries a telemetry hub streaming JSONL into a
// byte-counting discard sink (the `seesawctl run search -telemetry`
// shape).
func searchTelemetry128(seed uint64, tiny bool) (searchInput, error) {
	r := newSeedRand(seed, "search-telemetry-128")
	nodes, steps := 128, 400
	windows := []int{1, 2}
	if tiny {
		nodes, steps, windows = 16, 40, windows[:1]
	}
	budgets := []units.Watts{r.halfWatts(102, 2), r.halfWatts(110, 2), r.halfWatts(118, 2)}
	pts, err := rollout.Grid{
		Nodes: []int{nodes}, Budgets: budgets, Windows: windows, Dims: []int{16},
		Policies: fixedPolicies, Steps: steps, Seed: r.jobSeed(),
	}.Expand()
	if err != nil {
		return searchInput{}, err
	}
	sink := &countingSink{}
	hub := telemetry.New(telemetry.Options{Sink: sink})
	for i := range pts {
		pts[i].Spec.Telemetry = hub
	}
	return searchInput{points: pts, sink: sink}, nil
}

// countingSink is a JSONL sink that discards what it is given and counts
// bytes and lines.
type countingSink struct {
	bytes, lines atomic.Int64
}

func (s *countingSink) Write(p []byte) (int, error) {
	s.bytes.Add(int64(len(p)))
	n := 0
	for _, c := range p {
		if c == '\n' {
			n++
		}
	}
	s.lines.Add(int64(n))
	return len(p), nil
}

// jobID identifies the distinct job (the episode-invariant part) of a
// point within one workload: everything the workload varies except
// budget, window and policy.
func jobID(p rollout.Point) string {
	w := p.Spec.Workload
	return fmt.Sprintf("n%d+%d/dim%d/faults=%s/classes=%s", w.SimNodes, w.AnaNodes, w.Dim, p.Spec.Faults, p.Spec.Classes)
}

// onePerJob returns the first point of every distinct job.
func onePerJob(pts []rollout.Point) []rollout.Point {
	seen := map[string]bool{}
	var out []rollout.Point
	for _, p := range pts {
		if id := jobID(p); !seen[id] {
			seen[id] = true
			out = append(out, p)
		}
	}
	return out
}

// coldSetup times the cold passes — one Batch over one point per
// distinct job on an empty StateCache — and returns their durations and
// the last pass's cache, which the timed phase reuses.
func coldSetup(ctx context.Context, pts []rollout.Point) ([]float64, *rollout.StateCache, error) {
	cold := onePerJob(pts)
	var times []float64
	var cache *rollout.StateCache
	spent := 0.0
	for i := 0; i < maxSetupReps && (i < minSetupReps || spent < setupSeconds); i++ {
		cache = rollout.NewStateCache()
		t := time.Now()
		_, err := rollout.Batch(ctx, cold, rollout.Options{Name: "setup", Jobs: workers(), Cache: cache})
		times = append(times, since(t))
		spent += times[i]
		if err != nil {
			return nil, nil, fmt.Errorf("cold pass: %w", err)
		}
	}
	return times, cache, nil
}

// phase is one timed phase's end-to-end figures. The phase runs in
// units — one Batch pass, or one in-situ job — each timed on its own, so
// the rates are medians over units rather than one total.
type phase struct {
	episodes int
	// perUnit is the episode count of one unit.
	perUnit int
	// seconds and cpu are each unit's host and process CPU seconds.
	seconds, cpu []float64
	peakMB       float64
	rt0, rt1     runtimeSnap
}

// unit runs f as one timed unit of the phase.
func (ph *phase) unit(f func()) {
	c, t := cpuSeconds(), time.Now()
	f()
	ph.seconds = append(ph.seconds, since(t))
	ph.cpu = append(ph.cpu, cpuSeconds()-c)
	ph.episodes += ph.perUnit
}

// timedSearch runs whole Batch passes over the grid until at least
// seconds have elapsed, checking every outcome.
func timedSearch(ctx context.Context, in searchInput, cache *rollout.StateCache, seconds float64, chk *checker) (phase, error) {
	ph := phase{perUnit: len(in.points)}
	heap := startHeapSampler()
	ph.rt0 = readRuntime()
	start := time.Now()
	for ph.episodes == 0 || since(start) < seconds {
		var outs []rollout.Outcome
		ph.unit(func() {
			outs, _ = rollout.Batch(ctx, in.points, rollout.Options{Name: "search", Jobs: workers(), Cache: cache})
		})
		chk.pass(searchOutcomes(outs))
		if err := ctx.Err(); err != nil {
			heap.Stop()
			return ph, err
		}
	}
	ph.rt1 = readRuntime()
	ph.peakMB = heap.Stop()
	return ph, nil
}

// endToEnd converts a timed phase and the setup passes into the
// end-to-end metrics.
func endToEnd(ph phase, setup []float64, prov *provenance) map[string]metric {
	prov.Samples["episodes_per_s"] = len(ph.seconds)
	prov.Samples["cpu_s_per_episode"] = len(ph.cpu)
	prov.Samples["setup_s"] = len(setup)
	prov.Samples["peak_heap_mb"] = 1
	prov.UnitSeconds = ph.seconds
	n := float64(ph.perUnit)
	return map[string]metric{
		"episodes_per_s":    {n / median(ph.seconds), "1/s"},
		"cpu_s_per_episode": {median(ph.cpu) / n, "s"},
		"setup_s":           {median(setup), "s"},
		"peak_heap_mb":      {ph.peakMB, "MiB"},
	}
}

// searchUntraced is the end-to-end run of a search workload.
func searchUntraced(gen searchGen) func(context.Context, runConfig, *provenance) (report, error) {
	return func(ctx context.Context, cfg runConfig, prov *provenance) (report, error) {
		in, err := gen(cfg.seed, cfg.tiny)
		if err != nil {
			return report{}, err
		}
		setup, cache, err := coldSetup(ctx, in.points)
		if err != nil {
			return report{}, err
		}
		chk := newChecker(cfg, prov)
		ph, err := timedSearch(ctx, in, cache, cfg.seconds, chk)
		if err != nil {
			return report{}, err
		}
		return report{Attempted: chk.attempted, Failed: chk.failed, Metrics: endToEnd(ph, setup, prov)}, nil
	}
}

// insituJobs returns the workload's job list: cmd/insitu-shaped jobs of
// 512 simulation and 512 analysis ranks, all five analyses, the seesaw
// policy and 200 steps, at seed-derived budgets and seeds. Each call
// builds fresh policies, so a job can run any number of times.
func insituJobs(seed uint64, tiny bool) ([]insitu.Config, error) {
	r := newSeedRand(seed, "insitu-1024")
	ranks, steps := 512, 200
	if tiny {
		ranks, steps = 4, 20
	}
	jobs := make([]insitu.Config, 2)
	for k := range jobs {
		cons := core.Constraints{
			Budget: r.halfWatts(104+8*float64(k), 2) * units.Watts(2*ranks),
			MinCap: minCap, MaxCap: maxCap,
		}
		pol, err := policy.New("seesaw", cons, 1)
		if err != nil {
			return nil, err
		}
		md := lammps.DefaultConfig()
		md.Seed = r.jobSeed()
		jobs[k] = insitu.Config{
			SimRanks: ranks, AnaRanks: ranks, Steps: steps, SyncEvery: 1,
			Lammps: md, Analyses: allAnalyses, Policy: pol, Constraints: cons,
			Seed: r.jobSeed(), Noise: machine.DefaultNoise(),
		}
	}
	return jobs, nil
}

// insituJob runs job k of the workload with a fresh policy, wrapped by
// wrap when non-nil.
func insituJob(ctx context.Context, cfg runConfig, k int, wrap func(core.Policy) core.Policy) (*insitu.Result, insitu.Config, error) {
	jobs, err := insituJobs(cfg.seed, cfg.tiny)
	if err != nil {
		return nil, insitu.Config{}, err
	}
	job := jobs[k%len(jobs)]
	if wrap != nil {
		job.Policy = wrap(job.Policy)
	}
	res, err := insitu.Run(ctx, job)
	return res, job, err
}

// insituUntraced is the end-to-end run of the in-situ workload: warm-up
// jobs as the cold pass, then whole jobs one after another.
func insituUntraced(ctx context.Context, cfg runConfig, prov *provenance) (report, error) {
	chk := newChecker(cfg, prov)
	setup, err := insituSetup(ctx, cfg)
	if err != nil {
		return report{}, err
	}
	ph, err := timedInsitu(ctx, cfg, cfg.seconds, chk)
	if err != nil {
		return report{}, err
	}
	return report{Attempted: chk.attempted, Failed: chk.failed, Metrics: endToEnd(ph, setup, prov)}, nil
}

// insituSetup times insituSetupReps warm-up runs of the first job.
func insituSetup(ctx context.Context, cfg runConfig) ([]float64, error) {
	var times []float64
	for i := 0; i < insituSetupReps; i++ {
		t := time.Now()
		if _, _, err := insituJob(ctx, cfg, 0, nil); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		times = append(times, since(t))
	}
	return times, nil
}

// timedInsitu runs whole passes over the job list until at least seconds
// have elapsed, checking every outcome.
func timedInsitu(ctx context.Context, cfg runConfig, seconds float64, chk *checker) (phase, error) {
	jobs, err := insituJobs(cfg.seed, cfg.tiny)
	if err != nil {
		return phase{}, err
	}
	ph := phase{perUnit: 1}
	heap := startHeapSampler()
	ph.rt0 = readRuntime()
	start := time.Now()
	// Jobs run one at a time; the first pass over the job list always
	// completes (it is the one the digest covers), later passes may stop
	// part-way once the time is up.
	var outs []outcome
	for k := 0; k < len(jobs) || since(start) < seconds; k++ {
		var o outcome
		ph.unit(func() {
			res, job, err := insituJob(ctx, cfg, k, nil)
			o = insituOutcome(k%len(jobs), job, res, err)
		})
		outs = append(outs, o)
		if len(outs) == len(jobs) {
			chk.pass(outs)
			outs = nil
		}
		if err := ctx.Err(); err != nil {
			heap.Stop()
			return ph, err
		}
	}
	if len(outs) > 0 {
		chk.pass(outs)
	}
	ph.rt1 = readRuntime()
	ph.peakMB = heap.Stop()
	return ph, nil
}
