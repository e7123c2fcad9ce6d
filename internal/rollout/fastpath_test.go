package rollout

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// TestEnvPooledMatchesFresh pins the episode-reuse contract: replaying
// a spec on one Env — pooled cluster, pooled scratch — produces byte-identical reports to a fresh in-loop run,
// every time, for both drivers.
func TestEnvPooledMatchesFresh(t *testing.T) {
	t.Run("space-shared", func(t *testing.T) {
		spec := testSpec("", t)
		n := spec.Workload.SimNodes + spec.Workload.AnaNodes
		cons := spec.constraints(n)

		freshPol, err := policy.New("seesaw", cons, 1)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := cosim.Run(context.Background(), cosim.Config{
			Spec:        spec.Workload,
			Policy:      freshPol,
			Constraints: cons,
			CapMode:     cosim.CapLong,
			Seed:        spec.Seed,
			RunSeed:     spec.RunSeed,
			Noise:       spec.Noise,
			Faults:      spec.Faults,
		})
		if err != nil {
			t.Fatal(err)
		}

		env := NewEnv()
		defer env.Close()
		for round := 0; round < 3; round++ {
			pol, err := policy.New("seesaw", cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := env.Rollout(context.Background(), spec, pol)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if res.TotalTime != fresh.TotalTime || res.TotalEnergy != fresh.TotalEnergy {
				t.Fatalf("round %d totals (%v s, %v J) != fresh (%v s, %v J)",
					round, res.TotalTime, res.TotalEnergy, fresh.TotalTime, fresh.TotalEnergy)
			}
			if !bytes.Equal(syncCSV(t, res.SyncLog), syncCSV(t, fresh.SyncLog)) {
				t.Fatalf("round %d SyncLog diverges from fresh run", round)
			}
		}
	})

	t.Run("workflow", func(t *testing.T) {
		spec := testSpec("dag", t)
		cons := spec.constraints(spec.Workload.SimNodes + spec.Workload.AnaNodes)
		_ = cons

		baselinePol, err := policy.New("seesaw", spec.constraints(8), 1)
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := Run(context.Background(), spec, baselinePol)
		if err != nil {
			t.Fatal(err)
		}

		env := NewEnv()
		defer env.Close()
		for round := 0; round < 2; round++ {
			pol, err := policy.New("seesaw", spec.constraints(8), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := env.Rollout(context.Background(), spec, pol)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if res.TotalTime != baseline.TotalTime || res.TotalEnergy != baseline.TotalEnergy {
				t.Fatalf("round %d totals diverge from first run", round)
			}
			if !bytes.Equal(syncCSV(t, res.SyncLog), syncCSV(t, baseline.SyncLog)) {
				t.Fatalf("round %d SyncLog diverges from first run", round)
			}
		}
	})
}

// TestEnvPooledAcrossEpisodeParams pins that one pooled Episode serves
// points differing only in budget/policy: interleaving different
// budgets on one Env must reproduce each budget's fresh-run bytes.
func TestEnvPooledAcrossEpisodeParams(t *testing.T) {
	base := testSpec("", t)
	budgets := []units.Watts{105, 110, 120}

	fresh := map[units.Watts][]byte{}
	for _, b := range budgets {
		spec := base
		spec.CapPerNode = b
		pol, err := policy.New("seesaw", spec.constraints(8), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), spec, pol)
		if err != nil {
			t.Fatal(err)
		}
		fresh[b] = syncCSV(t, res.SyncLog)
	}

	env := NewEnv()
	defer env.Close()
	// Interleave budgets twice over; every episode reuses the same
	// pooled cluster because the job key ignores the budget.
	for round := 0; round < 2; round++ {
		for _, b := range budgets {
			spec := base
			spec.CapPerNode = b
			pol, err := policy.New("seesaw", spec.constraints(8), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := env.Rollout(context.Background(), spec, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(syncCSV(t, res.SyncLog), fresh[b]) {
				t.Fatalf("round %d budget %v: pooled SyncLog diverges from fresh run", round, b)
			}
		}
	}
}

// TestRolloutAllocs is the fast path's allocation gate: once an Env is
// warm, a pooled rollout — cluster reset, the whole cosim interval
// loop and the Result — allocates a fixed handful of objects, however
// many synchronizations the episode has. The bound is the count the
// pooled path had when this gate was set; growth here is a per-episode
// allocation regression.
func TestRolloutAllocs(t *testing.T) {
	if raceEnabled {
		// The race runtime drops sync.Pool entries at random (fmt's
		// printer cache among them), so counts there are noisy.
		t.Skip("allocation counts are not stable under the race detector")
	}
	const maxAllocs = 14
	spec := Spec{
		Workload: workload.Spec{
			SimNodes: 4, AnaNodes: 4,
			Dim: 8, J: 1, Steps: 40,
			Analyses: workload.Tasks("msd"),
		},
		Seed:    21,
		RunSeed: 22,
		Noise:   machine.DefaultNoise(),
	}
	const runs = 100
	// Policies are built up front so only the rollout is measured.
	pols := make([]core.Policy, runs+2)
	for i := range pols {
		p, err := policy.New("seesaw", spec.constraints(8), 1)
		if err != nil {
			t.Fatal(err)
		}
		pols[i] = p
	}
	env := NewEnv()
	defer env.Close()
	next := 0
	rollout := func() {
		if _, err := env.Rollout(context.Background(), spec, pols[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	rollout() // warm the pool: JobState, Episode, RAPL windows
	if allocs := testing.AllocsPerRun(runs, rollout); allocs > maxAllocs {
		t.Errorf("warm pooled Rollout allocates %.0f objects, want <= %d", allocs, maxAllocs)
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// cancelAt wraps a policy and cancels the episode's context from inside
// its Allocate at one synchronization step.
type cancelAt struct {
	core.Policy
	step   int
	cancel context.CancelFunc
}

// Allocate implements core.Policy.
func (c *cancelAt) Allocate(step int, nodes []core.NodeMeasure) []units.Watts {
	if step == c.step {
		c.cancel()
	}
	return c.Policy.Allocate(step, nodes)
}

// TestEnvPooledHammer drives thousands of pooled episodes through one
// Env — interleaved with episodes cancelled mid-run from inside the
// policy — to shake out pool corruption across episode boundaries
// (run under -race in CI): every rollout after a cancelled one must
// replay the fresh run's bytes.
func TestEnvPooledHammer(t *testing.T) {
	episodes := 10000
	if testing.Short() {
		episodes = 500
	}
	spec := Spec{
		Workload: workload.Spec{
			SimNodes: 2, AnaNodes: 2,
			Dim: 8, J: 1, Steps: 6,
			Analyses: workload.Tasks("msd"),
		},
		Seed:    31,
		RunSeed: 32,
		Noise:   machine.DefaultNoise(),
	}
	pol, err := policy.New("seesaw", spec.constraints(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), spec, pol)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV := syncCSV(t, want.SyncLog)

	env := NewEnv()
	defer env.Close()
	completed, cancelled := 0, 0
	for i := 0; i < episodes; i++ {
		p, err := policy.New("seesaw", spec.constraints(4), 1)
		if err != nil {
			t.Fatal(err)
		}
		if i%5 >= 3 {
			// Cancel mid-episode at a step that cycles through every
			// synchronization but the last (after the last one there is
			// no further context check and the episode completes).
			ctx, cancel := context.WithCancel(context.Background())
			k := 1 + (i/5)%(spec.Workload.Steps-1)
			res, err := env.Rollout(ctx, spec, &cancelAt{Policy: p, step: k, cancel: cancel})
			cancel()
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("episode %d cancelled at step %d: res %v, err %v; want no result and context.Canceled", i, k, res, err)
			}
			cancelled++
			continue
		}
		res, err := env.Rollout(context.Background(), spec, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(syncCSV(t, res.SyncLog), wantCSV) {
			t.Fatalf("episode %d diverges after pooled replay", i)
		}
		completed++
	}
	if completed == 0 || cancelled == 0 {
		t.Fatalf("%d episodes completed, %d cancelled; want both", completed, cancelled)
	}
}

// TestRolloutCancelledContext: a rollout under an already-cancelled
// context returns the context's error and no result, on the pooled
// space-shared path and on the workflow path alike.
func TestRolloutCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := NewEnv()
	defer env.Close()
	for _, topology := range []string{"", "dag"} {
		spec := testSpec(topology, t)
		pol, err := policy.New("seesaw", spec.constraints(8), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := env.Rollout(ctx, spec, pol)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Errorf("topology %q: res %v, err %v; want no result and context.Canceled", topology, res, err)
		}
	}
}

// TestNoiseMemoGolden pins the memoization contract end to end: a
// memoized episode (one interval-major noise trace recorded per job,
// replayed thereafter) is byte-identical to the same spec with
// NoNoiseMemo — every jitter variate drawn live from the node streams —
// in its sync log, fault log and totals. The faulted cases are the
// ones a slot offset taken from a counter over live nodes gets wrong:
// after a kill, every later node of the partition would read its dead
// neighbour's draws.
func TestNoiseMemoGolden(t *testing.T) {
	cases := []struct {
		name, faults, classes string
	}{
		{name: "fault-free"},
		{name: "kill-sim", faults: "kill:2@4"},
		{name: "kill-ana", faults: "kill:5@6"},
		{name: "slow", faults: "slow:1@3x2+6"},
		{name: "kill+slow", faults: "slow:6@3x2+8,kill:6@7,kill:1@9"},
		{name: "gpu-classes", faults: "kill:1@5", classes: "0-1:gpu,4-5:gpu"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := testSpec("", t)
			plan, err := fault.Parse(tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			spec.Faults = plan
			if spec.Classes, err = machine.ParseClassMap(tc.classes); err != nil {
				t.Fatal(err)
			}
			n := spec.Workload.SimNodes + spec.Workload.AnaNodes

			run := func(s Spec) *Result {
				t.Helper()
				env := NewEnv()
				defer env.Close()
				// Two rollouts: the second replays the recorded trace (or,
				// with NoNoiseMemo, redraws live) over the pooled episode.
				var res *Result
				for round := 0; round < 2; round++ {
					pol, err := policy.New("seesaw", s.constraints(n), 1)
					if err != nil {
						t.Fatal(err)
					}
					if res, err = env.Rollout(context.Background(), s, pol); err != nil {
						t.Fatal(err)
					}
				}
				st, err := env.cache.state(s.jobKey(), s.cosimConfig(nil))
				if err != nil {
					t.Fatal(err)
				}
				if memo := st.NoiseTrace() != nil; memo == s.NoNoiseMemo {
					t.Fatalf("NoNoiseMemo=%t but trace recorded=%t", s.NoNoiseMemo, memo)
				}
				return res
			}

			memo := run(spec)
			live := spec
			live.NoNoiseMemo = true
			liveRes := run(live)

			if memo.TotalTime != liveRes.TotalTime || memo.TotalEnergy != liveRes.TotalEnergy {
				t.Error("memoized totals diverge from live draws")
			}
			if !bytes.Equal(syncCSV(t, memo.SyncLog), syncCSV(t, liveRes.SyncLog)) {
				t.Error("memoized SyncLog diverges from live draws")
			}
			if !reflect.DeepEqual(memo.Cosim.FaultLog, liveRes.Cosim.FaultLog) {
				t.Errorf("memoized FaultLog %v diverges from live %v", memo.Cosim.FaultLog, liveRes.Cosim.FaultLog)
			}
			if tc.faults != "" && len(memo.Cosim.FaultLog) == 0 {
				t.Error("fault plan fired no transitions")
			}
		})
	}
}

// TestGridKeyExtras pins the non-default key segments: grids differing
// in steps, j, analyses or seed can never collide on a point key, while
// default grids keep their established key shape.
func TestGridKeyExtras(t *testing.T) {
	def, err := Grid{Policies: []string{"seesaw"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(def) != 1 {
		t.Fatalf("default grid expands to %d points, want 1", len(def))
	}
	if def[0].Key != "n8/b110/w1/dim16/faults=none/topo=space-shared/seesaw" {
		t.Fatalf("default key changed: %q", def[0].Key)
	}

	varied, err := Grid{
		Policies: []string{"seesaw"},
		Steps:    12,
		J:        3,
		Analyses: []string{"msd", "rdf"},
		Seed:     7,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := "n8/b110/w1/dim16/steps12/j3/an=msd+rdf/seed7/faults=none/topo=space-shared/seesaw"
	if varied[0].Key != want {
		t.Fatalf("varied key = %q, want %q", varied[0].Key, want)
	}
}
