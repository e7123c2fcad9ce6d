package rollout

import (
	"bytes"
	"context"
	"testing"

	"seesaw/internal/cosim"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/trace"
	"seesaw/internal/workflow"
	"seesaw/internal/workload"
)

// testSpec is a small-but-real episode: 8 nodes, a 2x slowdown
// excursion mid-run, paper-default noise.
func testSpec(topology string, t *testing.T) Spec {
	t.Helper()
	plan, err := fault.Parse("slow:0@5x2+8")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Workload: workload.Spec{
			SimNodes: 4, AnaNodes: 4,
			Dim: 16, J: 1, Steps: 30,
			Analyses: workload.Tasks("msd"),
		},
		Topology: topology,
		Seed:     9,
		RunSeed:  10,
		Noise:    machine.DefaultNoise(),
		Faults:   plan,
	}
}

func syncCSV(t *testing.T, log *trace.SyncLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := log.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEnvByteIdenticalToInLoopCosim pins the package's core contract:
// a registry policy rolled out through a pooled Env (shared JobState,
// memoized noise, pre-adapted phase tables) reproduces the one-shot
// space-shared driver's execution byte for byte.
func TestEnvByteIdenticalToInLoopCosim(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			spec := testSpec("", t)
			n := spec.Workload.SimNodes + spec.Workload.AnaNodes
			cons := spec.constraints(n)

			inPol, err := policy.New(name, cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			inRes, err := cosim.Run(context.Background(), cosim.Config{
				Spec:        spec.Workload,
				Policy:      inPol,
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

			envPol, err := policy.New(name, cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			envRes, err := Run(context.Background(), spec, envPol)
			if err != nil {
				t.Fatal(err)
			}

			if envRes.TotalTime != inRes.TotalTime || envRes.TotalEnergy != inRes.TotalEnergy {
				t.Errorf("env totals (%v s, %v J) != in-loop (%v s, %v J)",
					envRes.TotalTime, envRes.TotalEnergy, inRes.TotalTime, inRes.TotalEnergy)
			}
			if !bytes.Equal(syncCSV(t, envRes.SyncLog), syncCSV(t, inRes.SyncLog)) {
				t.Error("env SyncLog diverges from in-loop SyncLog")
			}
		})
	}
}

// TestEnvByteIdenticalToInLoopWorkflow is the same contract over the
// workflow driver (dag and in-transit placements): a rollout of a
// non-space-shared topology is the workflow engine run on the
// topology's graph with the policy in-loop.
func TestEnvByteIdenticalToInLoopWorkflow(t *testing.T) {
	for _, topology := range []string{"dag", "in-transit"} {
		t.Run(topology, func(t *testing.T) {
			spec := testSpec(topology, t)
			topo, err := workflow.Build(topology, workflow.Params{
				Nodes:    spec.Workload.SimNodes + spec.Workload.AnaNodes,
				Dim:      spec.Workload.Dim,
				J:        spec.Workload.J,
				Steps:    spec.Workload.Steps,
				Analyses: spec.Workload.Analyses,
			})
			if err != nil {
				t.Fatal(err)
			}
			cons := topo.ScaleCaps(spec.constraints(topo.PhysicalNodes))

			inPol, err := policy.New("seesaw", cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			inRes, err := workflow.Run(context.Background(), workflow.Config{
				Graph:       topo.Graph,
				Steps:       spec.Workload.Steps,
				SyncEvery:   spec.Workload.J,
				Policy:      inPol,
				Constraints: cons,
				Seed:        spec.Seed,
				RunSeed:     spec.RunSeed,
				Noise:       spec.Noise,
				Faults:      spec.Faults,
			})
			if err != nil {
				t.Fatal(err)
			}

			envPol, err := policy.New("seesaw", cons, 1)
			if err != nil {
				t.Fatal(err)
			}
			envRes, err := Run(context.Background(), spec, envPol)
			if err != nil {
				t.Fatal(err)
			}

			if envRes.TotalTime != inRes.MainLoopTime || envRes.TotalEnergy != inRes.TotalEnergy {
				t.Errorf("env totals (%v s, %v J) != in-loop (%v s, %v J)",
					envRes.TotalTime, envRes.TotalEnergy, inRes.MainLoopTime, inRes.TotalEnergy)
			}
			if !bytes.Equal(syncCSV(t, envRes.SyncLog), syncCSV(t, inRes.SyncLog)) {
				t.Error("env SyncLog diverges from in-loop SyncLog")
			}
		})
	}
}

// TestBatchByteIdenticalAcrossJobs pins Batch's concurrency contract:
// outcomes are pure functions of their points, so jobs=1 and jobs=8
// produce identical results in identical order.
func TestBatchByteIdenticalAcrossJobs(t *testing.T) {
	points, err := Grid{
		Nodes:      []int{8},
		Steps:      12,
		Faults:     []string{"", "slow:0@4x2+4"},
		Topologies: []string{"", "dag"},
		Policies:   []string{"seesaw", "time-aware", "bandit"},
		Seed:       5,
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}

	run := func(jobs int) []Outcome {
		outs, err := Batch(context.Background(), points, Options{Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return outs
	}
	seq, par := run(1), run(8)
	if len(seq) != len(points) || len(par) != len(points) {
		t.Fatalf("outcome counts %d/%d, want %d", len(seq), len(par), len(points))
	}
	for i := range seq {
		if seq[i].Point.Key != par[i].Point.Key {
			t.Fatalf("outcome %d keys diverge: %q vs %q", i, seq[i].Point.Key, par[i].Point.Key)
		}
		a, b := seq[i].Result, par[i].Result
		if a == nil || b == nil {
			t.Fatalf("point %q failed: %v / %v", points[i].Key, seq[i].Err, par[i].Err)
		}
		if a.TotalTime != b.TotalTime || a.TotalEnergy != b.TotalEnergy {
			t.Errorf("point %q totals diverge across jobs", points[i].Key)
		}
		if !bytes.Equal(syncCSV(t, a.SyncLog), syncCSV(t, b.SyncLog)) {
			t.Errorf("point %q SyncLog diverges across jobs", points[i].Key)
		}
	}
}

// TestGridExpandValidation: bad axis values fail fast, before any
// rollout runs.
func TestGridExpandValidation(t *testing.T) {
	if _, err := (Grid{Policies: []string{"nope"}}).Expand(); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := (Grid{Topologies: []string{"mesh"}}).Expand(); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := (Grid{Faults: []string{"explode:1@2"}}).Expand(); err == nil {
		t.Error("bad fault plan accepted")
	}
	points, err := Grid{}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(policy.Names()) {
		t.Errorf("zero grid expands to %d points, want one per registered policy (%d)",
			len(points), len(policy.Names()))
	}
}
