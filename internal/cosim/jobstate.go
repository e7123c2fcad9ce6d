// Episode-invariant precompute and pooled episode state for the cosim
// driver. A JobState captures everything about a co-simulated job that
// does not depend on the acting policy, the power budget or the initial
// caps: the synchronization schedule, the per-interval workload phase
// tables, the modeled allocator overhead and the (validated) cluster
// configuration. An Episode adds the mutable per-run state — the node
// population and the driver's scratch slices — and can run any number
// of episodes back to back, each byte-identical to a fresh cosim.Run
// with the same Config (the rollout goldens pin this).
//
// The split mirrors what simtrace.go/anatrace.go did inside the insitu
// driver: the search layer (internal/rollout) builds one JobState per
// distinct (workload, seeds, noise, faults, classes) key and shares it
// read-only across every grid point that differs only in budget,
// window or policy, while each worker owns its Episodes. The noise
// trace is shared wider still: every job with the same seeds,
// partition sizes and per-interval draw counts replays one (see
// NoiseTrace and TraceStore).
package cosim

import (
	"context"
	"fmt"

	"seesaw/internal/cluster"
	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/mpi"
	"seesaw/internal/rng"
	"seesaw/internal/trace"
	"seesaw/internal/units"
)

// intervalEnd is one entry of the synchronization schedule: the Verlet
// step the interval ends at and whether that end is a synchronization
// (the trailing partial interval is not).
type intervalEnd struct {
	step int
	sync bool
}

// policyComputeTime is the allocator's local compute charged per
// synchronization, on top of the modeled collectives.
const policyComputeTime = 2e-6

// JobState is the immutable, shareable precompute of one co-simulated
// job. It is safe for concurrent use by any number of Episodes.
type JobState struct {
	// cfg is the normalized configuration with the episode-varying
	// fields (Policy, Constraints, initial caps, CapMode) and the trace
	// store zeroed; those arrive per run via EpisodeParams.
	cfg Config

	schedule []intervalEnd
	// simPhases[k] and anaPhases[k] are the partitions' raw phase tables
	// for schedule entry k (anaPhases[k] is nil for non-synchronizing
	// trailing intervals). Episodes adapt them per device model and
	// never mutate a Phase in place.
	simPhases [][]machine.Phase
	anaPhases [][]machine.Phase

	overhead           units.Seconds
	nSim, nAna, nTotal int

	// draws is the job's per-interval draw layout (a NoiseTrace with no
	// data): how many standard normals each node consumes per interval.
	draws *NoiseTrace
	// noise is the job's recorded jitter-draw trace, replayed read-only
	// by every Episode (nil when memoization is off: NoNoiseMemo jobs,
	// one-shot Run among them).
	noise *NoiseTrace
}

// NoiseTrace is a job's recorded jitter draws — the standard normals
// each node's Box-Muller stream produces over one episode — laid out
// interval-major: interval k's block holds every simulation node's
// draws for that interval in node order, then every analysis node's.
// An Episode points each live node at its own (k, i) slot at the top of
// the interval, so the window kernel reads the trace front to back, and
// a dead node simply leaves its slot unread: the slot offset follows
// from the node index alone, never from how many nodes are alive.
//
// The draws depend only on the seeds, the partition sizes and the
// per-interval draw counts — not on dim, device classes, fault plan,
// budget, window or policy — so one trace serves every job sharing its
// key (see TraceStore). A NoiseTrace is immutable once recorded and safe
// for concurrent use.
type NoiseTrace struct {
	data []float64
	nSim int
	// base[k] is interval k's block offset in data; dSim[k] and dAna[k]
	// are the interval's per-node draw counts in each partition.
	base       []int
	dSim, dAna []int
	// total is the trace's length in draws.
	total int
}

// Bytes returns the trace's storage footprint in bytes.
func (t *NoiseTrace) Bytes() int64 { return int64(len(t.data)) * 8 }

// span returns interval k's block bounds in data.
func (t *NoiseTrace) span(k int) (lo, hi int) {
	hi = t.total
	if k+1 < len(t.base) {
		hi = t.base[k+1]
	}
	return t.base[k], hi
}

// block returns interval k's draws and its per-node draw counts.
func (t *NoiseTrace) block(k int) (blk []float64, dSim, dAna int) {
	lo, hi := t.span(k)
	return t.data[lo:hi], t.dSim[k], t.dAna[k]
}

// slotOf returns node i's slot in an interval block with per-node draw
// counts dSim and dAna: its offset is computed from the node index.
func slotOf(blk []float64, i, nSim, dSim, dAna int) []float64 {
	if i < nSim {
		return blk[i*dSim : (i+1)*dSim]
	}
	off := nSim*dSim + (i-nSim)*dAna
	return blk[off : off+dAna]
}

// TraceStore shares recorded noise traces across JobStates (see
// Config.Traces). Trace returns the trace stored under key, calling
// record to build it when there is none; every caller of one key must
// get the same trace.
type TraceStore interface {
	Trace(key string, record func() *NoiseTrace) *NoiseTrace
}

// NewJobState validates the workload and precomputes the job's
// episode-invariant tables. The Policy, Constraints, InitialSimCap,
// InitialAnaCap and CapMode fields of cfg are ignored — they are
// episode parameters, supplied to Episode.Run.
func NewJobState(cfg Config) (*JobState, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cost == (mpi.CostModel{}) {
		cfg.Cost = mpi.DefaultCost()
	}
	cfg.Policy = nil
	cfg.Constraints = core.Constraints{}
	cfg.InitialSimCap, cfg.InitialAnaCap = 0, 0
	cfg.CapMode = CapNone
	traces := cfg.Traces
	cfg.Traces = nil

	spec := cfg.Spec
	st := &JobState{
		cfg:    cfg,
		nSim:   spec.SimNodes,
		nAna:   spec.AnaNodes,
		nTotal: spec.SimNodes + spec.AnaNodes,
	}
	for _, s := range spec.SyncSchedule() {
		st.schedule = append(st.schedule, intervalEnd{step: s, sync: true})
	}
	if len(st.schedule) == 0 {
		return nil, fmt.Errorf("cosim: workload has no synchronization steps")
	}
	// A trailing partial interval covers Verlet steps after the last
	// synchronization.
	if last := st.schedule[len(st.schedule)-1].step; last < spec.Steps {
		st.schedule = append(st.schedule, intervalEnd{step: spec.Steps})
	}

	st.simPhases = make([][]machine.Phase, len(st.schedule))
	st.anaPhases = make([][]machine.Phase, len(st.schedule))
	prev := 0
	for i, iv := range st.schedule {
		st.simPhases[i] = spec.SimIntervalIdx(prev, iv.step, i)
		if iv.sync {
			st.anaPhases[i] = spec.AnaInterval(iv.step)
		}
		prev = iv.step
	}

	// Allocator overhead per synchronization: the measurement Allgather
	// and the cap Bcast over all nodes, plus the policy's local compute.
	st.overhead = cfg.Cost.CollectiveCost(st.nTotal, 32*st.nTotal) +
		cfg.Cost.CollectiveCost(st.nTotal, 8*st.nTotal) +
		policyComputeTime

	// Noise-trace memoization: the jitter draws a node consumes over an
	// episode depend only on the phase schedule and the run seed — never
	// on caps, budget or policy — so one recorded sequence serves every
	// grid point sharing this job. Faulted jobs replay it too: fault
	// work-scaling never zeroes a nominal, so every live node draws
	// exactly its fault-free count per interval, and a dead node stops
	// drawing at its kill.
	st.draws = st.drawLayout()
	if !cfg.NoNoiseMemo {
		st.noise = st.noiseTrace(traces)
	}
	return st, nil
}

// drawLayout derives the job's per-interval draw counts from the same
// phase tables the episodes execute (machine.Draws per phase). Device
// adaptation rescales a nominal duration but never zeroes it, so the
// raw tables count for every device class.
func (st *JobState) drawLayout() *NoiseTrace {
	countDraws := func(phs []machine.Phase) int {
		n := 0
		for i := range phs {
			n += machine.Draws(&phs[i], &st.cfg.Noise)
		}
		return n
	}
	nk := len(st.schedule)
	t := &NoiseTrace{nSim: st.nSim, base: make([]int, nk), dSim: make([]int, nk), dAna: make([]int, nk)}
	for k := range st.schedule {
		t.base[k] = t.total
		t.dSim[k], t.dAna[k] = countDraws(st.simPhases[k]), countDraws(st.anaPhases[k])
		t.total += st.nSim*t.dSim[k] + st.nAna*t.dAna[k]
	}
	return t
}

// noiseTrace returns the job's noise trace: from the store when one is
// given (recording it there on the key's first use), else freshly
// recorded.
func (st *JobState) noiseTrace(store TraceStore) *NoiseTrace {
	t := *st.draws
	record := func() *NoiseTrace {
		// The cluster layer falls back to the job seed when no run seed
		// is configured; the recorder mirrors that to tap the same
		// streams.
		runSeed := st.cfg.RunSeed
		if runSeed == 0 {
			runSeed = st.cfg.Seed
		}
		t.record(runSeed, st.nTotal)
		return &t
	}
	if store == nil {
		return record()
	}
	return store.Trace(t.layoutKey(st.cfg.Seed, st.cfg.RunSeed, st.nAna), record)
}

// layoutKey names everything the trace's contents depend on: the seed
// pair as configured, the partition sizes and the per-interval draw
// counts. The pair is kept whole rather than reduced to the effective
// run seed, so jobs of different job seeds never share a trace.
func (t *NoiseTrace) layoutKey(seed, runSeed uint64, nAna int) string {
	return fmt.Sprintf("seed=%d.%d/n%d+%d/draws=%v/%v", seed, runSeed, t.nSim, nAna, t.dSim, t.dAna)
}

// record fills the trace interval by interval from each node's jitter
// stream, so the writes sweep the flat slice front to back.
func (t *NoiseTrace) record(runSeed uint64, nTotal int) {
	t.data = make([]float64, t.total)
	streams := make([]*rng.Stream, nTotal)
	for i := range streams {
		streams[i] = machine.JitterStream(runSeed, i)
	}
	for k := range t.base {
		blk, dSim, dAna := t.block(k)
		for i, s := range streams {
			s.FillNorm(slotOf(blk, i, t.nSim, dSim, dAna))
		}
	}
}

// NoiseTrace returns the job's recorded noise trace (nil when
// memoization is off).
func (st *JobState) NoiseTrace() *NoiseTrace { return st.noise }

// TraceBytes returns the recorded noise trace's storage footprint in
// bytes (zero when memoization is off).
func (st *JobState) TraceBytes() int64 {
	if st.noise == nil {
		return 0
	}
	return st.noise.Bytes()
}

// EpisodeParams are the per-episode knobs of one run: the acting policy
// and the power-budget configuration. Everything else about the job
// lives in the shared JobState.
type EpisodeParams struct {
	// Policy allocates power at each synchronization; nil means static.
	Policy core.Policy
	// Constraints carry the global budget and per-node cap range.
	Constraints core.Constraints
	// InitialSimCap and InitialAnaCap are per-node starting caps; zero
	// means the default split (core.FloorSplit).
	InitialSimCap, InitialAnaCap units.Watts
	// CapMode selects the RAPL cap types.
	CapMode CapMode
}

// Episode owns the mutable state of one worker's runs over a JobState:
// the node population, its health view and the driver's scratch
// slices. Run may be called any number of times; each call resets the
// cluster and replays the job from scratch. An Episode is not safe for
// concurrent use.
type Episode struct {
	st *JobState
	cl *cluster.Cluster

	// tables[i] is node i's model-adapted per-interval phase tables at
	// its partition's current work scale (shared per distinct model,
	// partition and scale). The run loop executes them directly: no
	// per-execution adaptation and no Phase copy.
	tables [][][]machine.Phase
	// adapted caches those tables per (model, partition, scale) for the
	// Episode's lifetime: a fault plan fires the same kills every run,
	// so each scale is adapted once per Episode, not once per run.
	adapted map[tableKey][][]machine.Phase
	// scale is each partition's work scale the tables are adapted at.
	scale [2]float64

	// alive and health mirror the cluster's health view, updated from
	// the transitions cl.Advance returns so the run loop reads a slice
	// instead of taking the cluster mutex per node per interval.
	alive  []bool
	health []core.Health

	busy       []units.Seconds
	measures   []core.NodeMeasure
	lastEnergy []units.Joules
	initial    []units.Watts
	used       bool

	// live is the pooled one-interval noise block of an episode without
	// a recorded trace: each live node fills its slot from its jitter
	// stream right before the sweep executes it, so memoized and live
	// episodes run the same loop.
	live []float64

	// clock is the running episode's virtual time. It lives on the
	// Episode so the instrumented policy's clock callback reads it
	// without moving a Run local to the heap.
	clock units.Seconds
}

// tableKey identifies one set of adapted phase tables.
type tableKey struct {
	model machine.Model
	role  core.Role
	scale float64
}

// tablesFor returns the partition's per-interval phase tables adapted
// to model m at work scale s, building them on first use. Fault
// work-scaling multiplies the raw nominal before adaptation, exactly
// as executing the scaled phase through Run does (scale*(nominal/speed)
// != (scale*nominal)/speed in floating point), and scale 1 skips the
// multiply, so the tables are byte-identical to per-execution
// adaptation.
func (ep *Episode) tablesFor(m machine.Model, role core.Role, s float64) [][]machine.Phase {
	key := tableKey{model: m, role: role, scale: s}
	if tb, ok := ep.adapted[key]; ok {
		return tb
	}
	raw := ep.st.simPhases
	if role == core.RoleAnalysis {
		raw = ep.st.anaPhases
	}
	tb := make([][]machine.Phase, len(raw))
	for k, phs := range raw {
		if phs == nil {
			continue
		}
		adapted := make([]machine.Phase, len(phs))
		for j, ph := range phs {
			if s != 1 {
				ph.Nominal = units.Seconds(float64(ph.Nominal) * s)
			}
			adapted[j] = m.Adapt(ph)
		}
		tb[k] = adapted
	}
	ep.adapted[key] = tb
	return tb
}

// setScale points every node of one partition at its tables for work
// scale s. Kills are the only events that move a scale, so this runs a
// handful of times per faulted run and is a no-op otherwise.
func (ep *Episode) setScale(role core.Role, s float64) {
	if ep.scale[role] == s {
		return
	}
	ep.scale[role] = s
	lo, hi := 0, ep.st.nSim
	if role == core.RoleAnalysis {
		lo, hi = ep.st.nSim, ep.st.nTotal
	}
	for i := lo; i < hi; i++ {
		ep.tables[i] = ep.tablesFor(ep.cl.Node(i).Model(), role, s)
	}
}

// NewEpisode builds the job's node population for one worker. The
// phase tables are validated here against every device model present,
// once, so the run loop can execute pre-adapted tables without
// per-execution checks (an invalid phase panics, preserving
// machine.Node.Run's contract). Work-scaled tables need no check of
// their own: scaling by a factor >= 1 keeps a valid nominal valid.
func (st *JobState) NewEpisode() (*Episode, error) {
	cl, err := cluster.New(cluster.Config{
		SimNodes:      st.nSim,
		AnaNodes:      st.nAna,
		Rapl:          st.cfg.Rapl,
		Machine:       st.cfg.Machine,
		Noise:         st.cfg.Noise,
		Classes:       st.cfg.Classes,
		ClassRegistry: st.cfg.ClassRegistry,
		JobSeed:       st.cfg.Seed,
		RunSeed:       st.cfg.RunSeed,
		Faults:        st.cfg.Faults,
		Telemetry:     st.cfg.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	ep := &Episode{
		st:         st,
		cl:         cl,
		tables:     make([][][]machine.Phase, st.nTotal),
		adapted:    map[tableKey][][]machine.Phase{},
		scale:      [2]float64{1, 1},
		alive:      make([]bool, st.nTotal),
		health:     make([]core.Health, st.nTotal),
		busy:       make([]units.Seconds, st.nTotal),
		measures:   make([]core.NodeMeasure, st.nTotal),
		lastEnergy: make([]units.Joules, st.nTotal),
		initial:    make([]units.Watts, st.nTotal),
	}
	if st.noise == nil {
		n := 0
		for k := range st.schedule {
			lo, hi := st.draws.span(k)
			n = max(n, hi-lo)
		}
		ep.live = make([]float64, n)
	}
	validated := map[machine.Model]bool{}
	for i := 0; i < st.nTotal; i++ {
		m := cl.Node(i).Model()
		if !validated[m] {
			for _, tbl := range [2][][]machine.Phase{st.simPhases, st.anaPhases} {
				for _, phs := range tbl {
					for _, ph := range phs {
						if err := m.ValidatePhase(ph); err != nil {
							panic(err)
						}
					}
				}
			}
			validated[m] = true
		}
		ep.tables[i] = ep.tablesFor(m, cl.Role(i), 1)
	}
	return ep, nil
}

// Run executes one episode. The context is checked at every
// synchronization interval: cancelling it makes Run return ctx.Err()
// promptly with no partial Result. The returned Result owns all its
// storage; nothing in it aliases the Episode's pooled scratch state.
func (ep *Episode) Run(ctx context.Context, prm EpisodeParams) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := ep.st
	cfg := &st.cfg
	nSim, nTotal := st.nSim, st.nTotal

	pol := prm.Policy
	if pol == nil {
		pol = core.NewStatic()
	}
	if prm.CapMode != CapNone {
		if err := ep.cl.ValidateBudget(prm.Constraints); err != nil {
			return nil, err
		}
	}

	cl := ep.cl
	if ep.used {
		cl.Reset()
	}
	ep.used = true
	busy, measures, lastEnergy := ep.busy, ep.measures, ep.lastEnergy
	alive, health := ep.alive, ep.health
	for i := range lastEnergy {
		lastEnergy[i] = 0
		alive[i] = true
		health[i] = core.Healthy
	}
	ep.setScale(core.RoleSimulation, 1)
	ep.setScale(core.RoleAnalysis, 1)

	ep.clock = 0
	policy := core.Instrument(pol, cfg.Telemetry, func() float64 { return float64(ep.clock) })
	// Install initial caps: the partition's explicit cap, else the
	// default split.
	if prm.CapMode != CapNone {
		initial := ep.initial
		cl.InitialCaps(prm.Constraints, initial)
		for i := 0; i < nTotal; i++ {
			cap := prm.InitialAnaCap
			if cl.Role(i) == core.RoleSimulation {
				cap = prm.InitialSimCap
			}
			if cap == 0 {
				cap = initial[i]
			}
			cl.Node(i).RAPL().SetLongCap(cap)
			if prm.CapMode == CapLongShort {
				cl.Node(i).RAPL().SetShortCap(cap)
			}
		}
	}

	overhead := st.overhead
	res := &Result{
		SyncLog:         &trace.SyncLog{Records: make([]trace.SyncRecord, 0, len(st.schedule))},
		OverheadPerSync: overhead,
	}
	var carryOverhead units.Seconds

	// Idle-trough handles resolved once per partition: the per-node
	// observation inside the synchronization loop must not pay a family
	// label lookup (and a Role->string conversion) per node per interval.
	idleSimM := cfg.Telemetry.IdleWaitMetric(core.RoleSimulation.String())
	idleAnaM := cfg.Telemetry.IdleWaitMetric(core.RoleAnalysis.String())
	noise := st.noise
	bank := cl.Bank()

	for syncIdx, iv := range st.schedule {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		syncing := iv.sync

		// 0. Fault plan: transitions planned for this interval fire
		// before it executes. A kill shifts the dead node's share of the
		// partition's domain-decomposed work onto the survivors, which
		// move to tables adapted at the new work scale.
		if trs := cl.Advance(ep.clock, syncIdx+1); len(trs) > 0 {
			res.FaultLog = append(res.FaultLog, trs...)
			for _, tr := range trs {
				health[tr.NodeID] = tr.To
				alive[tr.NodeID] = tr.To.Alive()
			}
			ep.setScale(core.RoleSimulation, cl.WorkScale(core.RoleSimulation))
			ep.setScale(core.RoleAnalysis, cl.WorkScale(core.RoleAnalysis))
		}

		var blk []float64
		var dSim, dAna int
		if noise != nil {
			blk, dSim, dAna = noise.block(syncIdx)
		} else {
			lo, hi := st.draws.span(syncIdx)
			blk, dSim, dAna = ep.live[:hi-lo], st.draws.dSim[syncIdx], st.draws.dAna[syncIdx]
		}

		// 1. Execute every live node's interval: one node-major sweep
		// over the bank, each node reading its slot of the interval's
		// noise block (filled from its jitter stream first when the job
		// has no recorded trace).
		for i := 0; i < nTotal; i++ {
			if !alive[i] {
				busy[i] = 0
				continue
			}
			norms := slotOf(blk, i, nSim, dSim, dAna)
			if noise == nil {
				bank.NextNoise(i, norms)
			}
			phases := ep.tables[i][syncIdx]
			var t units.Seconds
			if cfg.TraceSegments && (i == 0 || i == nSim) {
				// A traced node runs phase by phase to record each
				// phase's segment.
				for k := range phases {
					d := machine.Draws(&phases[k], &cfg.Noise)
					_, exec := bank.RunInterval(i, phases[k:k+1], &cfg.Noise, norms[:d])
					norms = norms[d:]
					t += exec.Duration
					seg := Segment{Start: ep.clock + t - exec.Duration, Duration: exec.Duration, Power: exec.Power}
					if i == 0 {
						res.SimSegments = append(res.SimSegments, seg)
					} else {
						res.AnaSegments = append(res.AnaSegments, seg)
					}
				}
			} else {
				t, _ = bank.RunInterval(i, phases, &cfg.Noise, norms)
			}
			// The previous allocation's overhead is part of this
			// interval's runtime (the paper's measurement convention).
			t += carryOverhead
			busy[i] = t
		}

		// 2. Synchronization: the slower partition sets the wall time.
		var wall units.Seconds
		for _, t := range busy {
			if t > wall {
				wall = t
			}
		}
		// 3. Idle the waiting nodes up to the barrier and take the
		// measurements, exactly as PoLiMER reports them, in one pass
		// (the two are node-local: a node's energy is untouched by its
		// neighbours' idling, so idle-then-measure per node is bit-
		// identical to idling all nodes then measuring all nodes). The
		// epoch time additionally folds in part of the synchronization
		// wait, as a loop-level monitor (GEOPM) would observe it. Dead
		// nodes report zeroed measures (Cap 0 keeps the allocators from
		// re-injecting a corpse's stale cap into the budget pool).
		for i := 0; i < nTotal; i++ {
			if !alive[i] {
				measures[i] = core.NodeMeasure{NodeID: i, Health: core.Dead, Role: cl.Role(i)}
				continue
			}
			n := cl.Node(i)
			if wait := wall - busy[i]; wait > 0 {
				exec := n.Idle(wait)
				idleM := idleSimM
				if cl.Role(i) == core.RoleAnalysis {
					idleM = idleAnaM
				}
				if idleM != nil {
					idleM.Observe(float64(wait))
				}
				if cfg.TraceSegments && (i == 0 || i == nSim) {
					seg := Segment{Start: ep.clock + busy[i], Duration: wait, Power: exec.Power}
					if i == 0 {
						res.SimSegments = append(res.SimSegments, seg)
					} else {
						res.AnaSegments = append(res.AnaSegments, seg)
					}
				}
			}
			en := n.RAPL().Energy()
			e := en - lastEnergy[i]
			lastEnergy[i] = en
			// Field-wise writes into the pooled slice: a composite
			// literal here materializes a temporary NodeMeasure and
			// copies it in (a measurable duffcopy at scale).
			m := &measures[i]
			m.NodeID = i
			m.Health = health[i]
			m.Role = cl.Role(i)
			m.Time = wall // allocator-to-allocator interval: work + sync wait
			m.BusyTime = busy[i]
			m.EpochTime = busy[i] + (wall-busy[i])*epochWaitShare
			m.Power = units.AvgPower(e, wall)
			m.Cap = n.RAPL().LongCap()
			// Zero on a homogeneous cluster, so single-class runs
			// take the allocators' legacy uniform path unchanged.
			m.NodeCapability = cl.Capability(i)
		}
		ep.clock += wall
		rec := buildRecord(syncIdx+1, measures, nSim, overhead)
		res.SyncLog.Add(rec)
		if cfg.Telemetry != nil {
			cfg.Telemetry.SyncBarrier(float64(ep.clock), rec.Step,
				float64(wall), float64(rec.SimTime), float64(rec.AnaTime), rec.Slack(), float64(overhead))
			// Job-level budget check: summed measured power against the
			// global budget (small tolerance for enforcement slack). Dead
			// nodes draw nothing, so the sum covers live nodes only.
			if prm.CapMode != CapNone && prm.Constraints.Budget > 0 {
				aliveSim, aliveAna := cl.AliveCounts()
				total := float64(rec.SimPower)*float64(aliveSim) + float64(rec.AnaPower)*float64(aliveAna)
				if budget := float64(prm.Constraints.Budget); total > budget*1.01 {
					cfg.Telemetry.BudgetViolation(float64(ep.clock), "job", total, budget, true)
				}
			}
		}

		// 4. Policy invocation and cap writes.
		carryOverhead = 0
		if syncing && prm.CapMode != CapNone {
			caps := policy.Allocate(syncIdx+1, measures)
			if caps != nil {
				for i := 0; i < nTotal; i++ {
					n := cl.Node(i)
					if alive[i] && caps[i] > 0 && caps[i] != n.RAPL().LongCap() {
						n.RAPL().SetLongCap(caps[i])
						if prm.CapMode == CapLongShort {
							n.RAPL().SetShortCap(caps[i])
						}
					}
				}
			}
			carryOverhead = overhead
		}
	}

	res.TotalTime = ep.clock
	res.FinalCaps = make([]units.Watts, nTotal)
	for i := 0; i < nTotal; i++ {
		res.TotalEnergy += cl.Node(i).RAPL().Energy()
		res.FinalCaps[i] = cl.Node(i).RAPL().LongCap()
	}
	res.AliveSim, res.AliveAna = cl.AliveCounts()
	return res, nil
}
