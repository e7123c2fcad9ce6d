// Package rollout turns the deterministic co-simulation into a
// policy-evaluation environment with an explicit observation/action
// step API (the ROADMAP's policy-search substrate, SPARS-style):
//
//	env := rollout.NewEnv()
//	obs, err := env.Reset(spec)
//	for !done {
//	    caps := agent.Act(obs)          // any allocator, in- or out-of-tree
//	    obs, done = env.Step(caps)
//	}
//	res, err := env.Result()
//
// The environment is byte-identical to in-loop policy execution: an
// Env run is the existing cosim / workflow driver with the policy
// callback inverted into a condition-variable rendezvous, so a
// registry policy driven through Env reproduces exactly the report
// bytes of the same policy run inside the driver (the golden tests pin
// this, for fresh and pooled episodes alike).
//
// The step path is allocation-free at steady state: one driver
// goroutine per Env parks between episodes, observations are published
// through a double-buffered measure slice owned by the Env, and
// space-shared episodes replay a pooled cosim.Episode over a shared
// cosim.JobState instead of rebuilding the node population per run
// (see DESIGN.md, "Rollout fast path"). Batched rollouts over the
// campaign engine (Batch) reach thousands of policy evaluations per
// second — the "millions of runs" scale story.
package rollout

import (
	"context"
	"fmt"
	"sync"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/units"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

// Spec describes one environment episode: a full co-simulated job minus
// the policy, which the caller supplies action by action.
type Spec struct {
	// Workload is the job (node counts, dim, j, steps, analyses).
	Workload workload.Spec
	// Topology selects the driver: "" or "space-shared" runs the
	// classic two-partition cosim driver; any other registered topology
	// ("time-shared", "in-transit", "dag") runs the workflow engine on
	// the equivalent graph.
	Topology string
	// CapPerNode is the per-node budget (110 W, the paper's setting,
	// when zero); Constraints are derived from it unless set explicitly.
	CapPerNode units.Watts
	// Constraints, when non-zero, override the derived budget/range.
	Constraints core.Constraints
	// Seed and RunSeed drive the noise streams (see cosim.Config).
	Seed, RunSeed uint64
	// Noise configures node variability; zero disables it.
	Noise machine.NoiseModel
	// Faults is an optional deterministic fault plan.
	Faults *fault.Plan
	// Classes assigns device classes to node ids (machine.ClassMap
	// grammar); nil keeps the cluster homogeneous.
	Classes *machine.ClassMap
	// Telemetry, when non-nil, instruments the underlying run.
	// Instrumented episodes bypass the episode pool and the noise memo:
	// the counters live on the Hub and rapl.Domain.Reset keeps a
	// domain's telemetry attachment, so pooling would report the same
	// metrics, but routing instrumented specs through the memoized path
	// would add the job's recorded noise trace (~3.5 MiB at 128 nodes
	// and 400 steps) to the heap.
	Telemetry *telemetry.Hub
	// NoNoiseMemo disables the job's noise-trace memoization
	// (cosim.Config.NoNoiseMemo): episodes draw jitter live from the
	// node streams instead of replaying the recorded trace. Replay is
	// byte-identical by construction — the flag is a diagnostic escape
	// hatch, and it forks the job key so memoized and live JobStates
	// never share a cache entry.
	NoNoiseMemo bool
}

// paper-default cap range, mirrored from the experiment harness.
const (
	defaultCapPerNode = units.Watts(110)
	defaultMinCap     = units.Watts(98)
	defaultMaxCap     = units.Watts(215)
)

// constraints resolves the spec's constraint set.
func (s Spec) constraints(physicalNodes int) core.Constraints {
	if s.Constraints != (core.Constraints{}) {
		return s.Constraints
	}
	capPer := s.CapPerNode
	if capPer == 0 {
		capPer = defaultCapPerNode
	}
	return core.Constraints{
		Budget: capPer * units.Watts(physicalNodes),
		MinCap: defaultMinCap,
		MaxCap: defaultMaxCap,
	}
}

// jobKey identifies the episode-invariant part of a space-shared spec:
// everything cosim.NewJobState reads plus the cluster seeds and noise.
// Budget, window and policy are episode parameters and stay out of the
// key, so a grid sweep over them shares one cosim.JobState.
func (s Spec) jobKey() string {
	w := s.Workload
	key := fmt.Sprintf("n%d+%d/dim%d/j%d/steps%d/an=%v/nst=%t/seed=%d.%d/noise=%+v/faults=%s/classes=%s",
		w.SimNodes, w.AnaNodes, w.Dim, w.J, w.Steps, w.Analyses, w.NoSetupTransient,
		s.Seed, s.RunSeed, s.Noise, s.Faults, s.Classes)
	if s.NoNoiseMemo {
		key += "/nomemo"
	}
	return key
}

// cosimConfig assembles the space-shared driver configuration.
func (s Spec) cosimConfig(pol core.Policy) cosim.Config {
	return cosim.Config{
		Spec:        s.Workload,
		Policy:      pol,
		Constraints: s.constraints(s.Workload.SimNodes + s.Workload.AnaNodes),
		CapMode:     cosim.CapLong,
		Seed:        s.Seed,
		RunSeed:     s.RunSeed,
		Noise:       s.Noise,
		Faults:      s.Faults,
		Classes:     s.Classes,
		Telemetry:   s.Telemetry,
		NoNoiseMemo: s.NoNoiseMemo,
	}
}

// Observation is what the environment exposes between actions: the
// per-node measurements the in-loop policy would have received, plus
// the slack/phase aggregates the telemetry layer computes from them.
//
// Measures aliases a buffer owned by the Env and is only valid until
// the next Step, Reset or Close call on that Env. Callers that retain
// an observation across steps (replay buffers, logging) must take a
// Clone first; callers that act on it immediately — every policy's
// Allocate — read it for free.
type Observation struct {
	// Step is the 1-based synchronization index.
	Step int
	// Measures are the per-node measurements of the interval that just
	// ended, in world-rank order (what Policy.Allocate receives).
	Measures []core.NodeMeasure
	// SimTime and AnaTime are the partitions' slowest busy times;
	// Slack is the interval's normalized slack |T_S - T_A| / wall.
	SimTime, AnaTime units.Seconds
	Slack            float64
	// SimPower and AnaPower are the partitions' mean per-node measured
	// powers over the interval.
	SimPower, AnaPower units.Watts
	// AliveSim and AliveAna are the partitions' live node counts.
	AliveSim, AliveAna int
}

// Clone returns a copy of the observation whose Measures are owned by
// the caller, for retention past the Env's reuse window.
func (o Observation) Clone() Observation {
	o.Measures = append([]core.NodeMeasure(nil), o.Measures...)
	return o
}

// aggregate fills the observation's partition aggregates from its
// measures (the same arithmetic the drivers' SyncRecords use).
func (o *Observation) aggregate() {
	var wall units.Seconds
	for _, m := range o.Measures {
		if m.Health == core.Dead {
			continue
		}
		switch m.Role {
		case core.RoleSimulation:
			o.AliveSim++
			o.SimPower += m.Power
			if m.BusyTime > o.SimTime {
				o.SimTime = m.BusyTime
			}
		case core.RoleAnalysis:
			o.AliveAna++
			o.AnaPower += m.Power
			if m.BusyTime > o.AnaTime {
				o.AnaTime = m.BusyTime
			}
		}
		if m.Time > wall {
			wall = m.Time
		}
	}
	if o.AliveSim > 0 {
		o.SimPower /= units.Watts(o.AliveSim)
	}
	if o.AliveAna > 0 {
		o.AnaPower /= units.Watts(o.AliveAna)
	}
	o.Slack = trace.SyncRecord{SimTime: o.SimTime, AnaTime: o.AnaTime}.Slack()
}

// Result summarizes a finished episode, uniformly over both drivers.
type Result struct {
	// TotalTime is the job's main-loop wall time.
	TotalTime units.Seconds
	// TotalEnergy sums all nodes' energy.
	TotalEnergy units.Joules
	// SyncLog records each synchronization interval.
	SyncLog *trace.SyncLog
	// Cosim is the underlying driver result for space-shared episodes
	// (nil for workflow episodes); Workflow the converse.
	Cosim    *cosim.Result
	Workflow *workflow.Result
}

// envProxy is the core.Policy the drivers run: its Allocate publishes
// the measurements as an observation and blocks until the environment's
// Step supplies the caps.
type envProxy struct{ e *Env }

// Name implements core.Policy.
func (*envProxy) Name() string { return "rollout-env" }

// Allocate implements core.Policy.
func (p *envProxy) Allocate(step int, nodes []core.NodeMeasure) []units.Watts {
	return p.e.publish(step, nodes)
}

// Env is a rollout environment. The zero value is not usable; call
// NewEnv. An Env runs one episode at a time: Reset starts (or restarts)
// an episode, Step advances it, Result reads the finished episode's
// outcome. Env is not safe for concurrent use; run one Env per worker.
//
// An Env owns one driver goroutine that parks between episodes, plus
// the pooled per-worker episode state (observation buffers and, for
// space-shared specs, the reusable cosim.Episode). Resetting the same
// spec — or one differing only in budget — replays the pooled episode
// instead of rebuilding the node population, which is where batched
// rollout throughput comes from. Close releases the goroutine; a
// closed Env may be Reset again.
type Env struct {
	// mu/cond guard every field the driver goroutine shares with the
	// caller; the rendezvous needs no channels and no per-step
	// allocations.
	mu   sync.Mutex
	cond sync.Cond

	// driver goroutine lifecycle.
	started bool
	closing bool
	exited  chan struct{}

	// Reset → driver episode handoff.
	pendingRun func(context.Context) (*Result, error)
	pendingCtx context.Context

	// episode rendezvous state.
	epoch     uint64 // current episode; stale context watchers check it
	obsReady  bool
	capsReady bool
	caps      []units.Watts
	obs       Observation
	epDone    bool
	abandoned bool
	res       *Result
	err       error

	// caller-side episode bookkeeping (caller goroutine only).
	hasEp  bool
	fin    bool
	cancel context.CancelFunc
	stop   func() bool

	// double-buffered observation measures, owned by the driver
	// goroutine during an episode: the buffer published at step k stays
	// intact while step k+1 fills the other one, so the caller may read
	// its observation until the next Step call.
	measBuf [2][]core.NodeMeasure
	bufIdx  int

	// pooled space-shared episode state.
	proxy *envProxy
	cache *StateCache
	epKey string
	ep    *cosim.Episode

	// pooled lane state for RolloutLanes, keyed like the episode pool.
	lanesKey string
	lanes    *cosim.Lanes
}

// NewEnv returns an idle environment with a private state cache.
func NewEnv() *Env { return NewEnvWith(nil) }

// NewEnvWith returns an idle environment sharing the given JobState
// cache; nil gets a private one. Batch workers share one cache so the
// per-job precompute is paid once per grid, not once per worker.
func NewEnvWith(cache *StateCache) *Env {
	if cache == nil {
		cache = NewStateCache()
	}
	e := &Env{cache: cache}
	e.cond.L = &e.mu
	e.proxy = &envProxy{e}
	return e
}

// publish hands one decision point to the caller and blocks the driver
// until Step supplies the caps (nil once the episode is abandoned).
// Runs on the driver goroutine only.
func (e *Env) publish(step int, nodes []core.NodeMeasure) []units.Watts {
	// Copy into the inactive buffer and aggregate outside the lock: the
	// driver owns both buffers during an episode, and the mutex handoff
	// below publishes the writes to the caller.
	buf := e.measBuf[e.bufIdx]
	if cap(buf) < len(nodes) {
		buf = make([]core.NodeMeasure, len(nodes))
	}
	buf = buf[:len(nodes)]
	copy(buf, nodes)
	e.measBuf[e.bufIdx] = buf
	e.bufIdx ^= 1
	o := Observation{Step: step, Measures: buf}
	o.aggregate()

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.abandoned {
		return nil
	}
	e.obs = o
	e.obsReady = true
	e.cond.Broadcast()
	for !e.capsReady && !e.abandoned {
		e.cond.Wait()
	}
	if e.abandoned {
		return nil
	}
	e.capsReady = false
	caps := e.caps
	e.caps = nil
	return caps
}

// driverLoop is the Env's single driver goroutine: it parks between
// episodes and runs each posted episode to completion.
func (e *Env) driverLoop() {
	e.mu.Lock()
	for {
		for e.pendingRun == nil && !e.closing {
			e.cond.Wait()
		}
		if e.closing {
			close(e.exited)
			e.mu.Unlock()
			return
		}
		run, ctx := e.pendingRun, e.pendingCtx
		e.pendingRun, e.pendingCtx = nil, nil
		e.mu.Unlock()

		res, err := run(ctx)

		e.mu.Lock()
		e.res, e.err = res, err
		e.epDone = true
		e.cond.Broadcast()
	}
}

// abandon unwinds the current episode, if any: it cancels the episode
// context, wakes a driver parked at a decision point and waits for the
// run to return. After abandon the driver goroutine is parked again
// (or was never started) and no episode is active.
func (e *Env) abandon() {
	if !e.hasEp {
		return
	}
	e.cancel()
	e.stop()
	e.mu.Lock()
	if !e.epDone {
		e.abandoned = true
		e.cond.Broadcast()
		for !e.epDone {
			e.cond.Wait()
		}
	}
	e.mu.Unlock()
	e.cancel, e.stop = nil, nil
	e.hasEp, e.fin = false, false
}

// Reset starts a new episode from spec and returns the first
// observation — the measurements of the first synchronization interval,
// exactly as the in-loop policy would first see them. A previous
// unfinished episode is abandoned (its driver unwinds via context
// cancellation). Reset is ResetContext with a background context.
func (e *Env) Reset(spec Spec) (Observation, error) {
	return e.ResetContext(context.Background(), spec)
}

// ResetContext is Reset under a caller-supplied context: cancelling ctx
// abandons the episode — a blocked Step returns done promptly and
// Result reports the context's error.
func (e *Env) ResetContext(ctx context.Context, spec Spec) (Observation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.abandon()

	runp, err := e.compile(spec)
	if err != nil {
		return Observation{}, err
	}
	// The driver plays the proxy policy: every allocation round trips
	// through the step rendezvous.
	run := func(ctx context.Context) (*Result, error) { return runp(ctx, e.proxy) }
	epCtx, cancel := context.WithCancel(ctx)

	e.mu.Lock()
	e.epoch++
	epoch := e.epoch
	e.obsReady, e.capsReady, e.epDone, e.abandoned = false, false, false, false
	e.res, e.err, e.caps = nil, nil, nil
	if !e.started {
		e.started = true
		e.exited = make(chan struct{})
		go e.driverLoop()
	}
	e.pendingRun, e.pendingCtx = run, epCtx
	e.cond.Broadcast()
	e.mu.Unlock()

	// The context watcher replaces the old per-step select on
	// ctx.Done(): one AfterFunc per episode instead of two channel
	// waits per step. The epoch guard keeps a late firing from
	// touching a successor episode.
	stop := context.AfterFunc(epCtx, func() {
		e.mu.Lock()
		if e.epoch == epoch {
			e.abandoned = true
			e.cond.Broadcast()
		}
		e.mu.Unlock()
	})
	e.cancel, e.stop = cancel, stop
	e.hasEp, e.fin = true, false

	e.mu.Lock()
	for !e.obsReady && !e.epDone {
		e.cond.Wait()
	}
	if e.epDone {
		// The episode ended before the first allocation (error, or a
		// workload with no capped syncs).
		err := e.err
		e.mu.Unlock()
		e.fin = true
		if err != nil {
			return Observation{}, err
		}
		return Observation{}, fmt.Errorf("rollout: episode finished before the first observation")
	}
	o := e.obs
	e.obsReady = false
	e.mu.Unlock()
	return o, nil
}

// Step applies the action — per-node caps aligned with the previous
// observation's Measures, or nil to leave caps unchanged — and runs the
// episode to the next decision point. done reports episode completion;
// after done, read the outcome with Result.
func (e *Env) Step(caps []units.Watts) (Observation, bool) {
	if !e.hasEp || e.fin {
		return Observation{}, true
	}
	e.mu.Lock()
	e.caps = caps
	e.capsReady = true
	e.cond.Broadcast()
	for !e.obsReady && !e.epDone {
		e.cond.Wait()
	}
	if e.epDone {
		e.mu.Unlock()
		e.fin = true
		return Observation{}, true
	}
	o := e.obs
	e.obsReady = false
	e.mu.Unlock()
	return o, false
}

// Result returns the finished episode's outcome. Calling it before Step
// reported done is an error. The Result owns all its storage; it stays
// valid across later Resets of the same Env.
func (e *Env) Result() (*Result, error) {
	if !e.hasEp {
		return nil, fmt.Errorf("rollout: no episode started")
	}
	if !e.fin {
		return nil, fmt.Errorf("rollout: episode still running")
	}
	e.mu.Lock()
	res, err := e.res, e.err
	e.mu.Unlock()
	return res, err
}

// Close abandons the current episode, if any, and parks then releases
// the driver goroutine. A closed Env may be Reset again.
func (e *Env) Close() {
	e.abandon()
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return
	}
	e.closing = true
	e.cond.Broadcast()
	exited := e.exited
	e.mu.Unlock()
	<-exited
	e.mu.Lock()
	e.started, e.closing = false, false
	e.exited = nil
	e.mu.Unlock()
}

// compile turns the spec into a runner parameterized on the acting
// policy: the driver goroutine plays the step-API proxy through it,
// while Rollout plugs the caller's policy in directly.
// Space-shared specs without telemetry go through the episode pool: the
// shared cache supplies the job's immutable precompute and the Env
// keeps the last spec's Episode (node population and scratch) alive, so
// repeated Resets of one job replay it instead of rebuilding it.
func (e *Env) compile(spec Spec) (func(context.Context, core.Policy) (*Result, error), error) {
	if spec.Topology == "" || spec.Topology == "space-shared" {
		if spec.Telemetry != nil {
			// Instrumented episodes run the plain one-shot driver,
			// which keeps the job's noise trace off the heap (see
			// Spec.Telemetry).
			cfg := spec.cosimConfig(nil)
			return func(ctx context.Context, pol core.Policy) (*Result, error) {
				c := cfg
				c.Policy = pol
				res, err := cosim.Run(ctx, c)
				if err != nil {
					return nil, err
				}
				return &Result{
					TotalTime:   res.TotalTime,
					TotalEnergy: res.TotalEnergy,
					SyncLog:     res.SyncLog,
					Cosim:       res,
				}, nil
			}, nil
		}
		key := spec.jobKey()
		if e.ep == nil || e.epKey != key {
			st, err := e.cache.state(key, spec.cosimConfig(nil))
			if err != nil {
				return nil, err
			}
			ep, err := st.NewEpisode()
			if err != nil {
				return nil, err
			}
			e.epKey, e.ep = key, ep
		}
		ep := e.ep
		prm := cosim.EpisodeParams{
			Constraints: spec.constraints(spec.Workload.SimNodes + spec.Workload.AnaNodes),
			CapMode:     cosim.CapLong,
		}
		return func(ctx context.Context, pol core.Policy) (*Result, error) {
			p := prm
			p.Policy = pol
			res, err := ep.Run(ctx, p)
			if err != nil {
				return nil, err
			}
			return &Result{
				TotalTime:   res.TotalTime,
				TotalEnergy: res.TotalEnergy,
				SyncLog:     res.SyncLog,
				Cosim:       res,
			}, nil
		}, nil
	}

	topo, err := workflow.Build(spec.Topology, workflow.Params{
		Nodes:    spec.Workload.SimNodes + spec.Workload.AnaNodes,
		Dim:      spec.Workload.Dim,
		J:        spec.Workload.J,
		Steps:    spec.Workload.Steps,
		Analyses: spec.Workload.Analyses,
	})
	if err != nil {
		return nil, fmt.Errorf("rollout: %w", err)
	}
	cfg := workflow.Config{
		Graph:       topo.Graph,
		Steps:       spec.Workload.Steps,
		SyncEvery:   spec.Workload.J,
		Constraints: topo.ScaleCaps(spec.constraints(topo.PhysicalNodes)),
		Seed:        spec.Seed,
		RunSeed:     spec.RunSeed,
		Noise:       spec.Noise,
		Faults:      spec.Faults,
		Classes:     spec.Classes,
		Telemetry:   spec.Telemetry,
	}
	return func(ctx context.Context, pol core.Policy) (*Result, error) {
		c := cfg
		c.Policy = pol
		res, err := workflow.Run(ctx, c)
		if err != nil {
			return nil, err
		}
		return &Result{
			TotalTime:   res.MainLoopTime,
			TotalEnergy: res.TotalEnergy,
			SyncLog:     res.SyncLog,
			Workflow:    res,
		}, nil
	}, nil
}

// Rollout drives one full episode of spec on e with pol supplying every
// action. The policy is in-process, so there is nothing to rendezvous
// with: the episode runs on the caller's goroutine with pol invoked at
// each synchronization directly — byte-identical to self-play over the
// step API (the proxy feeds the policy the same measures), minus the
// driver wakeups and observation copies per step. Reusing one Env
// across Rollout calls keeps the pooled episode state warm; it is how
// Batch workers run their cells and the subject of BenchmarkRollouts.
func (e *Env) Rollout(ctx context.Context, spec Spec, pol core.Policy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.abandon()
	run, err := e.compile(spec)
	if err != nil {
		return nil, err
	}
	return run(ctx, pol)
}

// RolloutLanes drives len(specs) episodes of one job in lockstep
// through a pooled cosim.Lanes, pols[i] supplying specs[i]'s actions.
// All specs must be space-shared, uninstrumented, and share one job key
// — i.e. differ only in budget/constraints — which is exactly the shape
// of a grid sweep's key group; Batch carves its points into such lanes.
// Results are in specs order and byte-identical to Rollout of each
// spec alone (the lane goldens pin this); the lockstep only changes
// which episode's window executes next, so the job's phase tables and
// memoized noise traces are read once per window instead of once per
// episode.
func (e *Env) RolloutLanes(ctx context.Context, specs []Spec, pols []core.Policy) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(specs) == 0 {
		return nil, nil
	}
	if len(specs) != len(pols) {
		return nil, fmt.Errorf("rollout: %d specs, %d policies", len(specs), len(pols))
	}
	key := specs[0].jobKey()
	for i, s := range specs {
		if s.Topology != "" && s.Topology != "space-shared" {
			return nil, fmt.Errorf("rollout: lane %d topology %q (lanes are space-shared only)", i, s.Topology)
		}
		if s.Telemetry != nil {
			return nil, fmt.Errorf("rollout: lane %d is instrumented (lanes bypass telemetry)", i)
		}
		if i > 0 && s.jobKey() != key {
			return nil, fmt.Errorf("rollout: lane %d job differs from lane 0 (lanes share one job)", i)
		}
	}
	e.abandon()
	if e.lanes == nil || e.lanesKey != key || e.lanes.Width() < len(specs) {
		st, err := e.cache.state(key, specs[0].cosimConfig(nil))
		if err != nil {
			return nil, err
		}
		lanes, err := st.NewLanes(len(specs))
		if err != nil {
			return nil, err
		}
		e.lanesKey, e.lanes = key, lanes
	}
	prms := make([]cosim.EpisodeParams, len(specs))
	for i, s := range specs {
		prms[i] = cosim.EpisodeParams{
			Policy:      pols[i],
			Constraints: s.constraints(s.Workload.SimNodes + s.Workload.AnaNodes),
			CapMode:     cosim.CapLong,
		}
	}
	rs, err := e.lanes.Run(ctx, prms)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(rs))
	for i, r := range rs {
		out[i] = &Result{
			TotalTime:   r.TotalTime,
			TotalEnergy: r.TotalEnergy,
			SyncLog:     r.SyncLog,
			Cosim:       r,
		}
	}
	return out, nil
}

// Run drives one full episode of spec with pol supplying every action,
// on a throwaway Env. It is the one-shot rollout primitive; batched
// callers hold an Env (or use Batch) to amortize episode state.
func Run(ctx context.Context, spec Spec, pol core.Policy) (*Result, error) {
	env := NewEnv()
	defer env.Close()
	return env.Rollout(ctx, spec, pol)
}
