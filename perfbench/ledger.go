package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"seesaw/internal/campaign"
	"seesaw/internal/cluster"
	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/rng"
	"seesaw/internal/rollout"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run reports all of them; a metric whose layer the workload
// does not execute reads 0 and is listed in provenance.not_applicable.
var perLayer = []struct{ name, unit string }{
	{"rollout.episode_ms.p50", "ms"},
	{"rollout.episode_ms.p90", "ms"},
	{"rollout.overhead_us", "us"},
	{"rollout.points_per_cell", "ratio"},
	{"rollout.cache_misses", "count"},
	{"rollout.cache_mb", "MiB"},
	{"campaign.dispatch_us_per_cell", "us"},
	{"campaign.worker_busy_share", "ratio"},
	{"cosim.jobstate_build_ms", "ms"},
	{"cosim.trace_mb", "MiB"},
	{"cosim.episode_new_ms", "ms"},
	{"cosim.episode_run_ms.faultfree", "ms"},
	{"cosim.episode_run_ms.faulted", "ms"},
	{"cosim.episode_run_ms.hetero", "ms"},
	{"cosim.window_ns_per_node_sync", "ns"},
	{"cosim.measure_ns", "ns"},
	{"policy.static.allocate_us", "us"},
	{"policy.seesaw.allocate_us", "us"},
	{"policy.time-aware.allocate_us", "us"},
	{"policy.power-aware.allocate_us", "us"},
	{"policy.bandit.allocate_us", "us"},
	{"policy.allocate_share", "ratio"},
	{"machine.run_adapted_ns", "ns"},
	{"machine.idle_ns", "ns"},
	{"rapl.grant_ns", "ns"},
	{"rapl.advance_ns", "ns"},
	{"rapl.set_long_cap_ns", "ns"},
	{"rng.jitter_ns_per_draw", "ns"},
	{"telemetry.overhead_ratio", "ratio"},
	{"telemetry.events_per_episode", "count"},
	{"telemetry.sink_kb_per_episode", "KiB"},
	{"telemetry.dropped", "count"},
	{"lammps.step_us", "us"},
	{"lammps.neighbor_us", "us"},
	{"analysis.rdf.consume_us", "us"},
	{"analysis.vacf.consume_us", "us"},
	{"analysis.msd.consume_us", "us"},
	{"analysis.msd1d.consume_us", "us"},
	{"analysis.msd2d.consume_us", "us"},
	{"mpi.barrier_us", "us"},
	{"mpi.allreduce_us", "us"},
	{"mpi.bcast_us", "us"},
	{"mpi.allgather_us", "us"},
	{"go.alloc_kb_per_episode", "KiB"},
	{"go.allocs_per_episode", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"ledger.unattributed_share", "ratio"},
	{"insitu.unattributed_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// ledger collects per-layer values and their sample counts.
type ledger struct {
	vals map[string]float64
	prov *provenance
}

func newLedger(prov *provenance) *ledger {
	return &ledger{vals: map[string]float64{}, prov: prov}
}

func (l *ledger) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l.vals[name] = v
	l.prov.Samples[name] = samples
}

// metrics returns every per-layer metric, 0 for those not measured.
func (l *ledger) metrics() map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v, ok := l.vals[m.name]
		if !ok {
			l.prov.NotApplicable = append(l.prov.NotApplicable, m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// goRuntime records the go.* metrics of an untraced timed phase.
func (l *ledger) goRuntime(ph phase) {
	n := float64(ph.episodes)
	l.set("go.alloc_kb_per_episode", float64(ph.rt1.allocBytes-ph.rt0.allocBytes)/n/1024, ph.episodes)
	l.set("go.allocs_per_episode", float64(ph.rt1.allocs-ph.rt0.allocs)/n, ph.episodes)
	if cpu := ph.rt1.totalCPU - ph.rt0.totalCPU; cpu > 0 {
		l.set("go.gc_cpu_fraction", (ph.rt1.gcCPU-ph.rt0.gcCPU)/cpu, ph.episodes)
	}
}

// timedPolicy is a pass-through core.Policy that times Allocate. It
// returns the inner policy's caps unchanged, so episodes are
// byte-identical with and without it (the traced pass checks this).
type timedPolicy struct {
	inner core.Policy
	ns    int64
	calls int
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(step int, nodes []core.NodeMeasure) []units.Watts {
	t := time.Now()
	caps := p.inner.Allocate(step, nodes)
	p.ns += time.Since(t).Nanoseconds()
	p.calls++
	return caps
}

// constraints mirrors the constraint set rollout derives for a point.
func constraints(p rollout.Point) core.Constraints {
	n := p.Spec.Workload.SimNodes + p.Spec.Workload.AnaNodes
	return core.Constraints{Budget: p.Spec.CapPerNode * units.Watts(n), MinCap: minCap, MaxCap: maxCap}
}

// newPolicy builds the point's registry policy.
func newPolicy(p rollout.Point) (core.Policy, error) {
	w := p.Window
	if w < 1 {
		w = 1
	}
	return policy.New(p.Policy, constraints(p), w)
}

// cosimConfig mirrors the cosim configuration rollout builds for a
// space-shared point, without telemetry.
func cosimConfig(p rollout.Point) cosim.Config {
	s := p.Spec
	return cosim.Config{
		Spec: s.Workload, CapMode: cosim.CapLong, Seed: s.Seed, RunSeed: s.RunSeed,
		Noise: s.Noise, Faults: s.Faults, Classes: s.Classes,
	}
}

// episodeParams is the point's per-episode parameters under pol.
func episodeParams(p rollout.Point, pol core.Policy) cosim.EpisodeParams {
	return cosim.EpisodeParams{Policy: pol, Constraints: constraints(p), CapMode: cosim.CapLong}
}

// seqSubset picks the points the sequential traced passes run: the first
// few of every job, so every job shape (fault-free, faulted,
// heterogeneous) is covered. It returns their enumeration indices.
func seqSubset(pts []rollout.Point) []int {
	per := 10 / len(onePerJob(pts))
	if per < 2 {
		per = 2
	}
	count := map[string]int{}
	var idx []int
	for i, p := range pts {
		id := jobID(p)
		if count[id] < per {
			count[id]++
			idx = append(idx, i)
		}
	}
	return idx
}

// searchTraced is the traced run of a search workload.
func searchTraced(gen searchGen) func(context.Context, runConfig, *provenance) (report, error) {
	return func(ctx context.Context, cfg runConfig, prov *provenance) (report, error) {
		in, err := gen(cfg.seed, cfg.tiny)
		if err != nil {
			return report{}, err
		}
		_, cache, err := coldSetup(ctx, in.points)
		if err != nil {
			return report{}, err
		}
		chk := newChecker(cfg, prov)
		l := newLedger(prov)

		// Untraced reference: Batch passes for the go.* deltas and the
		// per-point digests every traced path must reproduce.
		ph, err := timedSearch(ctx, in, cache, cfg.seconds/2, chk)
		if err != nil {
			return report{}, err
		}
		l.goRuntime(ph)

		cells, err := batchCells(ctx, in, cache, chk, l)
		if err != nil {
			return report{}, err
		}
		st := cache.Stats()
		l.set("rollout.cache_misses", float64(st.Misses), 1)
		l.set("rollout.cache_mb", float64(st.Bytes)/(1<<20), 1)
		dispatch(ctx, cells, l)

		subset := seqSubset(in.points)
		if err := paths(ctx, in, cache, subset, chk, l); err != nil {
			return report{}, err
		}
		if err := kernelLedger(ctx, in.points, cfg.tiny, l); err != nil {
			return report{}, err
		}
		if err := telemetryOverhead(ctx, in.points, subset, l); err != nil {
			return report{}, err
		}
		return report{Attempted: chk.attempted, Failed: chk.failed, Metrics: l.metrics()}, nil
	}
}

// batchCells runs one Batch with campaign telemetry attached and reads
// the CampaignCell events: cells per batch, points per cell and how busy
// the workers were. It returns the cell count.
func batchCells(ctx context.Context, in searchInput, cache *rollout.StateCache, chk *checker, l *ledger) (int, error) {
	hub := telemetry.New(telemetry.Options{RingSize: 4 * len(in.points)})
	t := time.Now()
	outs, _ := rollout.Batch(ctx, in.points, rollout.Options{Name: "search", Jobs: workers(), Cache: cache, Telemetry: hub})
	wall := since(t)
	chk.pass(searchOutcomes(outs))
	cells, busy := 0, 0.0
	for _, e := range hub.Events() {
		if c, ok := e.(telemetry.CampaignCell); ok && c.Campaign == "search" {
			cells++
			busy += c.Seconds
		}
	}
	if cells == 0 {
		return 0, fmt.Errorf("no campaign cell events")
	}
	l.set("rollout.points_per_cell", float64(len(in.points))/float64(cells), cells)
	l.set("campaign.worker_busy_share", busy/(wall*float64(workers())), cells)
	return cells, ctx.Err()
}

// dispatch times campaign.Run over no-op cells at the workload's cell
// and worker counts.
func dispatch(ctx context.Context, cells int, l *ledger) {
	noop := make([]campaign.Cell, cells)
	for i := range noop {
		noop[i] = campaign.Cell{Key: "noop", Run: func(context.Context) (any, error) { return nil, nil }}
	}
	const reps = 31
	per := make([]float64, reps)
	for r := range per {
		t := time.Now()
		_, _ = campaign.Run(ctx, noop, campaign.Options{Name: "noop", Jobs: workers()})
		per[r] = since(t) * 1e6 / float64(cells)
	}
	l.set("campaign.dispatch_us_per_cell", median(per), reps)
}

// paths runs every subset point three ways, back to back so drift on a
// shared machine hits all three alike: an untraced Env.Rollout on one
// pooled Env, a traced Env.Rollout (timing policy wrapper), and a direct
// Episode.Run on a JobState and Episode built here without the rollout
// layer (building them is timed too). Both traced outcomes must match the
// Batch outcome byte for byte.
func paths(ctx context.Context, in searchInput, cache *rollout.StateCache, subset []int, chk *checker, l *ledger) error {
	env := rollout.NewEnvWith(cache)
	defer env.Close()
	var plain, traced float64
	var epMs, build, newEp, overheadUs []float64
	runs := map[string][]float64{}
	var windowNs, nodeSyncs float64
	var traceBytes int64
	eps := map[string]*cosim.Episode{}
	for _, i := range subset {
		p := in.points[i]
		id := jobID(p)
		ep := eps[id]
		if ep == nil {
			t := time.Now()
			st, err := cosim.NewJobState(cosimConfig(p))
			if err != nil {
				return err
			}
			build = append(build, since(t)*1e3)
			traceBytes += st.TraceBytes()
			t = time.Now()
			if ep, err = st.NewEpisode(); err != nil {
				return err
			}
			newEp = append(newEp, since(t)*1e3)
			eps[id] = ep
		}

		pol, err := newPolicy(p)
		if err != nil {
			return err
		}
		t := time.Now()
		if _, err := env.Rollout(ctx, p.Spec, pol); err != nil {
			return err
		}
		roll := since(t)
		plain += roll
		epMs = append(epMs, roll*1e3)

		inner, err := newPolicy(p)
		if err != nil {
			return err
		}
		tp := &timedPolicy{inner: inner}
		t = time.Now()
		res, err := env.Rollout(ctx, p.Spec, tp)
		traced += since(t)
		chk.compare(i, searchOutcome(p, res, err), "traced Env.Rollout")

		if inner, err = newPolicy(p); err != nil {
			return err
		}
		tp = &timedPolicy{inner: inner}
		t = time.Now()
		cres, err := ep.Run(ctx, episodeParams(p, tp))
		d := since(t)
		var rr *rollout.Result
		if cres != nil {
			rr = &rollout.Result{TotalTime: cres.TotalTime, TotalEnergy: cres.TotalEnergy, SyncLog: cres.SyncLog, Cosim: cres}
		}
		chk.compare(i, searchOutcome(p, rr, err), "direct Episode.Run")
		if err != nil {
			continue
		}
		kind := episodeKind(p)
		runs[kind] = append(runs[kind], d*1e3)
		overheadUs = append(overheadUs, (roll-d)*1e6)
		if kind == "faultfree" {
			n := p.Spec.Workload.SimNodes + p.Spec.Workload.AnaNodes
			windowNs += d*1e9 - float64(tp.ns)
			nodeSyncs += float64(n * cres.SyncLog.Len())
		}
	}
	l.set("rollout.episode_ms.p50", quantile(epMs, 0.5), len(epMs))
	l.set("rollout.episode_ms.p90", quantile(epMs, 0.9), len(epMs))
	l.set("trace.overhead_ratio", traced/plain, len(epMs))
	l.set("rollout.overhead_us", median(overheadUs), len(overheadUs))
	l.set("cosim.jobstate_build_ms", median(build), len(build))
	l.set("cosim.episode_new_ms", median(newEp), len(newEp))
	l.set("cosim.trace_mb", float64(traceBytes)/(1<<20), len(build))
	for k, ms := range runs {
		l.set("cosim.episode_run_ms."+k, median(ms), len(ms))
	}
	if nodeSyncs > 0 {
		l.set("cosim.window_ns_per_node_sync", windowNs/nodeSyncs, len(runs["faultfree"]))
	}
	return ctx.Err()
}

// episodeKind classifies a point's job.
func episodeKind(p rollout.Point) string {
	switch {
	case !p.Spec.Faults.Empty():
		return "faulted"
	case !p.Spec.Classes.Empty():
		return "hetero"
	}
	return "faultfree"
}

// telemetryOverhead runs up to four subset points instrumented (fresh
// hub, counting sink) and uninstrumented on one Env, alternating, and
// reports the time ratio and the event volume.
func telemetryOverhead(ctx context.Context, pts []rollout.Point, subset []int, l *ledger) error {
	if len(subset) > 4 {
		subset = subset[:4]
	}
	env := rollout.NewEnv()
	defer env.Close()
	sink := &countingSink{}
	hub := telemetry.New(telemetry.Options{Sink: sink})
	var on, off float64
	for _, i := range subset {
		for _, instrumented := range []bool{false, true} {
			p := pts[i]
			p.Spec.Telemetry = nil
			if instrumented {
				p.Spec.Telemetry = hub
			}
			pol, err := newPolicy(p)
			if err != nil {
				return err
			}
			t := time.Now()
			if _, err := env.Rollout(ctx, p.Spec, pol); err != nil {
				return err
			}
			if instrumented {
				on += since(t)
			} else {
				off += since(t)
			}
		}
	}
	n := float64(len(subset))
	l.set("telemetry.overhead_ratio", on/off, len(subset))
	l.set("telemetry.events_per_episode", float64(sink.lines.Load())/n, len(subset))
	l.set("telemetry.sink_kb_per_episode", float64(sink.bytes.Load())/n/1024, len(subset))
	l.set("telemetry.dropped", float64(hub.Dropped()), len(subset))
	return nil
}

// ledgerPoint picks the job the kernel ledger replays: the largest
// fault-free homogeneous job of the workload, at its first budget.
func ledgerPoint(pts []rollout.Point) (rollout.Point, bool) {
	var best rollout.Point
	found := false
	for _, p := range pts {
		if episodeKind(p) != "faultfree" {
			continue
		}
		n := p.Spec.Workload.SimNodes + p.Spec.Workload.AnaNodes
		if !found || n > best.Spec.Workload.SimNodes+best.Spec.Workload.AnaNodes {
			best, found = p, true
		}
	}
	best.Window = 1
	best.Spec.Telemetry = nil
	return best, found
}

// kernelLedger replays the ledger job's window kernel from outside —
// machine.Node.RunAdapted, Node.Idle, the measurement assembly, every
// registered policy's Allocate and the RAPL cap writes — timing each
// block, interleaved with the real Episode.Run of the same point, and
// reconciles the per-layer self times against the real episode time.
func kernelLedger(ctx context.Context, pts []rollout.Point, tiny bool, l *ledger) error {
	p, ok := ledgerPoint(pts)
	if !ok {
		return fmt.Errorf("no fault-free homogeneous job for the kernel ledger")
	}
	st, err := cosim.NewJobState(cosimConfig(p))
	if err != nil {
		return err
	}
	ep, err := st.NewEpisode()
	if err != nil {
		return err
	}
	warm, err := ep.Run(ctx, episodeParams(p, nil))
	if err != nil {
		return err
	}
	rp, err := newReplica(p, warm.OverheadPerSync)
	if err != nil {
		return err
	}
	micro, err := raplMicro(p, tiny)
	if err != nil {
		return err
	}
	reps := 2
	if tiny {
		reps = 1
	}
	var tot replicaTimes
	var realNs float64
	alloc := map[string]*timedPolicy{}
	exact := true
	for r := 0; r < reps; r++ {
		for _, name := range allPolicies {
			q := p
			q.Policy = name
			inner, err := newPolicy(q)
			if err != nil {
				return err
			}
			tp := alloc[name]
			if tp == nil {
				tp = &timedPolicy{}
				alloc[name] = tp
			}
			tp.inner = inner
			got, err := rp.run(q, tp, &tot)
			if err != nil {
				return err
			}
			realPol, err := newPolicy(q)
			if err != nil {
				return err
			}
			t := time.Now()
			want, err := ep.Run(ctx, episodeParams(q, realPol))
			if err != nil {
				return err
			}
			realNs += float64(time.Since(t).Nanoseconds())
			exact = exact && sameResult(got, want)
		}
	}
	l.prov.LedgerReplicaExact = &exact
	var allocNs float64
	for _, name := range allPolicies {
		tp := alloc[name]
		allocNs += float64(tp.ns)
		l.set("policy."+name+".allocate_us", float64(tp.ns)/float64(tp.calls)/1e3, tp.calls)
	}
	self := tot.execNs - float64(tot.grants)*micro.grantNs - float64(tot.advances)*micro.advanceNs
	l.set("machine.run_adapted_ns", self/float64(tot.runs), tot.runs)
	l.set("machine.idle_ns", tot.idleNs/float64(tot.idles), tot.idles)
	l.set("cosim.measure_ns", tot.measureNs/float64(tot.measures), tot.measures)
	l.set("rapl.grant_ns", micro.grantNs, micro.calls)
	l.set("rapl.advance_ns", micro.advanceNs, micro.calls)
	if tot.capWrites > 0 {
		// The cap-write block (LongCap compare plus SetLongCap per node)
		// per cap actually written.
		l.set("rapl.set_long_cap_ns", tot.capNs/float64(tot.capWrites), tot.capWrites)
	}
	l.set("rng.jitter_ns_per_draw", micro.jitterNs, micro.calls)
	l.set("policy.allocate_share", allocNs/realNs, reps*len(allPolicies))
	attributed := tot.execNs + tot.idleNs + tot.measureNs + allocNs + tot.capNs
	l.set("ledger.unattributed_share", 1-attributed/realNs, reps*len(allPolicies))
	return ctx.Err()
}

// sameResult reports whether the replica reproduced the real episode.
func sameResult(a, b *cosim.Result) bool {
	if a.TotalTime != b.TotalTime || a.TotalEnergy != b.TotalEnergy || len(a.FinalCaps) != len(b.FinalCaps) {
		return false
	}
	for i := range a.FinalCaps {
		if a.FinalCaps[i] != b.FinalCaps[i] {
			return false
		}
	}
	return true
}

// replica is the window kernel of one fault-free homogeneous job,
// assembled from exported pieces: the cluster's nodes, the workload's
// phase tables adapted by the node model, and recorded noise traces.
type replica struct {
	cl       *cluster.Cluster
	sim, ana [][]machine.Phase
	sync     []bool
	noise    machine.NoiseModel
	overhead units.Seconds
}

// replicaTimes accumulates the replica's block timings and call counts.
type replicaTimes struct {
	execNs, idleNs, measureNs, capNs float64
	runs, grants, advances           int
	idles, measures                  int
	capWrites                        int
}

// epochWaitShare mirrors the share of the synchronization wait a
// loop-level monitor folds into a node's epoch time.
const epochWaitShare = 0.8

// newReplica builds the replica of p's job; overhead is the modeled
// allocator cost per synchronization, as the real episode reports it.
func newReplica(p rollout.Point, overhead units.Seconds) (*replica, error) {
	w := p.Spec.Workload
	cl, err := cluster.New(cluster.Config{
		SimNodes: w.SimNodes, AnaNodes: w.AnaNodes, Noise: p.Spec.Noise,
		JobSeed: p.Spec.Seed, RunSeed: p.Spec.RunSeed,
	})
	if err != nil {
		return nil, err
	}
	rp := &replica{cl: cl, noise: p.Spec.Noise, overhead: overhead}
	model := cl.Node(0).Model()
	adapt := func(phs []machine.Phase) []machine.Phase {
		out := make([]machine.Phase, len(phs))
		for i, ph := range phs {
			out[i] = model.Adapt(ph)
		}
		return out
	}
	ends := w.SyncSchedule()
	prev := 0
	for i, end := range ends {
		rp.sim = append(rp.sim, adapt(w.SimIntervalIdx(prev, end, i)))
		rp.ana = append(rp.ana, adapt(w.AnaInterval(end)))
		rp.sync = append(rp.sync, true)
		prev = end
	}
	if prev < w.Steps {
		rp.sim = append(rp.sim, adapt(w.SimIntervalIdx(prev, w.Steps, len(ends))))
		rp.ana = append(rp.ana, nil)
		rp.sync = append(rp.sync, false)
	}
	perExec := 1
	if p.Spec.Noise.PowerSigma > 0 {
		perExec = 2
	}
	draws := func(tables [][]machine.Phase) int {
		n := 0
		for _, phs := range tables {
			for _, ph := range phs {
				if ph.Nominal != 0 {
					n += perExec
				}
			}
		}
		return n
	}
	dSim, dAna := draws(rp.sim), draws(rp.ana)
	runSeed := p.Spec.RunSeed
	if runSeed == 0 {
		runSeed = p.Spec.Seed
	}
	for i := 0; i < cl.Size(); i++ {
		d := dSim
		if cl.Role(i) == core.RoleAnalysis {
			d = dAna
		}
		cl.Node(i).SetNoiseTrace(machine.JitterTrace(runSeed, i, d))
	}
	return rp, nil
}

// run executes one episode of p under pol, timing each block into tot.
func (rp *replica) run(p rollout.Point, pol core.Policy, tot *replicaTimes) (*cosim.Result, error) {
	cl := rp.cl
	cl.Reset()
	n := cl.Size()
	cons := constraints(p)
	if err := cons.Validate(n); err != nil {
		return nil, err
	}
	even := core.EvenSplit(cons, n)
	for i := 0; i < n; i++ {
		cl.Node(i).RAPL().SetLongCap(even)
	}
	busy := make([]units.Seconds, n)
	lastEnergy := make([]units.Joules, n)
	measures := make([]core.NodeMeasure, n)
	var clock, carry units.Seconds
	for k := range rp.sim {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			node := cl.Node(i)
			phs := rp.sim[k]
			if cl.Role(i) == core.RoleAnalysis {
				phs = rp.ana[k]
			}
			var t units.Seconds
			for j := range phs {
				t += node.RunAdapted(&phs[j], &rp.noise).Duration
				// A phase of zero nominal time returns before touching
				// the RAPL domain; every other one grants and advances.
				if phs[j].Nominal != 0 {
					tot.grants++
					tot.advances++
				}
			}
			tot.runs += len(phs)
			busy[i] = t + carry
		}
		t1 := time.Now()
		var wall units.Seconds
		for _, b := range busy {
			if b > wall {
				wall = b
			}
		}
		for i := 0; i < n; i++ {
			if wait := wall - busy[i]; wait > 0 {
				cl.Node(i).Idle(wait)
				tot.idles++
			}
		}
		t2 := time.Now()
		for i := 0; i < n; i++ {
			node := cl.Node(i)
			en := node.RAPL().Energy()
			m := &measures[i]
			m.NodeID = i
			m.Health = core.Healthy
			m.Role = cl.Role(i)
			m.Time = wall
			m.BusyTime = busy[i]
			m.EpochTime = busy[i] + (wall-busy[i])*epochWaitShare
			m.Power = units.AvgPower(en-lastEnergy[i], wall)
			m.Cap = node.RAPL().LongCap()
			m.NodeCapability = cl.Capability(i)
			lastEnergy[i] = en
		}
		t3 := time.Now()
		tot.execNs += float64(t1.Sub(t0).Nanoseconds())
		tot.idleNs += float64(t2.Sub(t1).Nanoseconds())
		tot.measureNs += float64(t3.Sub(t2).Nanoseconds())
		tot.measures += n
		clock += wall
		carry = 0
		if rp.sync[k] {
			if caps := pol.Allocate(k+1, measures); caps != nil {
				t4 := time.Now()
				for i := 0; i < n; i++ {
					d := cl.Node(i).RAPL()
					if caps[i] > 0 && caps[i] != d.LongCap() {
						d.SetLongCap(caps[i])
						tot.capWrites++
					}
				}
				tot.capNs += float64(time.Since(t4).Nanoseconds())
			}
			carry = rp.overhead
		}
	}
	res := &cosim.Result{TotalTime: clock, FinalCaps: make([]units.Watts, n)}
	for i := 0; i < n; i++ {
		res.TotalEnergy += cl.Node(i).RAPL().Energy()
		res.FinalCaps[i] = cl.Node(i).RAPL().LongCap()
	}
	return res, nil
}

// keep holds results of timed loops so the compiler cannot drop them.
var keep float64

// microTimes are the per-call costs of the RAPL methods and the live
// jitter draw, measured on a second node population of the ledger job.
type microTimes struct {
	grantNs, advanceNs, jitterNs float64
	calls                        int
}

// raplMicro times Domain.Grant and Domain.Advance over
// every node of a fresh cluster at the ledger job's mid-run phase
// demands, and the live jitter draw (rng Norm + JitterFrom).
func raplMicro(p rollout.Point, tiny bool) (microTimes, error) {
	rp, err := newReplica(p, 0)
	if err != nil {
		return microTimes{}, err
	}
	cl := rp.cl
	n := cl.Size()
	k := len(rp.sim) / 2
	target := 2_000_000
	if tiny {
		target = 20_000
	}
	perRound := 0
	for i := 0; i < n; i++ {
		phs := rp.sim[k]
		if cl.Role(i) == core.RoleAnalysis {
			phs = rp.ana[k]
		}
		perRound += len(phs)
	}
	rounds := target/perRound + 1
	var mt microTimes
	mt.calls = rounds * perRound
	var sink units.Watts
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			phs := rp.sim[k]
			if cl.Role(i) == core.RoleAnalysis {
				phs = rp.ana[k]
			}
			d := cl.Node(i).RAPL()
			for j := range phs {
				a, _ := d.Grant(phs[j].Demand)
				sink += a
			}
		}
	}
	mt.grantNs = float64(time.Since(t).Nanoseconds()) / float64(mt.calls)
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			phs := rp.sim[k]
			if cl.Role(i) == core.RoleAnalysis {
				phs = rp.ana[k]
			}
			d := cl.Node(i).RAPL()
			for j := range phs {
				d.Advance(phs[j].Nominal, phs[j].Demand)
			}
		}
	}
	mt.advanceNs = float64(time.Since(t).Nanoseconds()) / float64(mt.calls)
	s := rng.DeriveIndexed(p.Spec.RunSeed, "node-jitter", 0)
	x := 0.0
	t = time.Now()
	for r := 0; r < mt.calls; r++ {
		x += rng.JitterFrom(s.Norm(), 0.01)
	}
	mt.jitterNs = float64(time.Since(t).Nanoseconds()) / float64(mt.calls)
	keep = float64(sink) + x
	return mt, nil
}
