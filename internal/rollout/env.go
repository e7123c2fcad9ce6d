// Package rollout turns the deterministic co-simulation into a
// policy-evaluation environment (the ROADMAP's policy-search substrate,
// SPARS-style): a policy is any core.Policy, and one rollout runs a
// full episode with it deciding the caps at every synchronization:
//
//	env := rollout.NewEnv()
//	defer env.Close()
//	res, err := env.Rollout(ctx, spec, pol) // pol: any allocator, in- or out-of-tree
//
// A rollout is the existing cosim / workflow driver with the policy
// invoked in-loop, so a registry policy reproduces exactly the report
// bytes of the same policy run inside the driver (the golden tests pin
// this, for fresh and pooled episodes alike).
//
// Space-shared episodes replay a pooled cosim.Episode over a shared
// cosim.JobState instead of rebuilding the node population per run
// (see DESIGN.md, "Rollout fast path"). Batched rollouts over the
// campaign engine (Batch) reach thousands of policy evaluations per
// second — the "millions of runs" scale story.
package rollout

import (
	"context"
	"fmt"

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
// the policy, which the caller supplies to Rollout.
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
	// byte-identical by construction, for faulted and class-mapped jobs
	// as for fault-free ones — the flag is a diagnostic escape hatch,
	// and it forks the job key so memoized and live JobStates never
	// share a cache entry.
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

// Env is a rollout environment. The zero value is not usable; call
// NewEnv. Env is not safe for concurrent use; run one Env per worker.
//
// An Env pools the per-worker episode state: for space-shared specs,
// the reusable cosim.Episode of the last job it ran. Rolling out the
// same spec again — or one differing only in budget or policy —
// replays the pooled episode instead of rebuilding the node
// population, which is where batched rollout throughput comes from.
type Env struct {
	cache *StateCache
	epKey string
	ep    *cosim.Episode
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
	return &Env{cache: cache}
}

// Close drops the pooled episode state. A closed Env may be used again;
// its next space-shared rollout rebuilds the node population.
func (e *Env) Close() {
	e.epKey, e.ep = "", nil
}

// Rollout drives one full episode of spec on e with pol supplying every
// action, invoked in-loop at each synchronization on the caller's
// goroutine. A cancelled ctx stops the episode at the next
// synchronization with ctx.Err() and no Result. Reusing one Env across
// Rollout calls keeps the pooled episode state warm; it is how Batch
// workers run their cells and the subject of BenchmarkRollouts.
//
// Space-shared specs without telemetry go through the episode pool: the
// shared cache supplies the job's immutable precompute and the Env
// keeps the last job's Episode (node population and scratch) alive.
func (e *Env) Rollout(ctx context.Context, spec Spec, pol core.Policy) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Topology != "" && spec.Topology != "space-shared" {
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
		res, err := workflow.Run(ctx, workflow.Config{
			Graph:       topo.Graph,
			Steps:       spec.Workload.Steps,
			SyncEvery:   spec.Workload.J,
			Policy:      pol,
			Constraints: topo.ScaleCaps(spec.constraints(topo.PhysicalNodes)),
			Seed:        spec.Seed,
			RunSeed:     spec.RunSeed,
			Noise:       spec.Noise,
			Faults:      spec.Faults,
			Classes:     spec.Classes,
			Telemetry:   spec.Telemetry,
		})
		if err != nil {
			return nil, err
		}
		return &Result{
			TotalTime:   res.MainLoopTime,
			TotalEnergy: res.TotalEnergy,
			SyncLog:     res.SyncLog,
			Workflow:    res,
		}, nil
	}

	var res *cosim.Result
	var err error
	if spec.Telemetry != nil {
		// Instrumented episodes run the plain one-shot driver, which
		// keeps the job's noise trace off the heap (see Spec.Telemetry).
		res, err = cosim.Run(ctx, spec.cosimConfig(pol))
	} else {
		if key := spec.jobKey(); e.ep == nil || e.epKey != key {
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
		res, err = e.ep.Run(ctx, cosim.EpisodeParams{
			Policy:      pol,
			Constraints: spec.constraints(spec.Workload.SimNodes + spec.Workload.AnaNodes),
			CapMode:     cosim.CapLong,
		})
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		TotalTime:   res.TotalTime,
		TotalEnergy: res.TotalEnergy,
		SyncLog:     res.SyncLog,
		Cosim:       res,
	}, nil
}

// Run drives one full episode of spec with pol supplying every action,
// on a throwaway Env. It is the one-shot rollout primitive; batched
// callers hold an Env (or use Batch) to amortize episode state.
func Run(ctx context.Context, spec Spec, pol core.Policy) (*Result, error) {
	env := NewEnv()
	defer env.Close()
	return env.Rollout(ctx, spec, pol)
}
