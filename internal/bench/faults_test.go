package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"seesaw/internal/fault"
	"seesaw/internal/telemetry"
	"seesaw/internal/workload"
)

// TestFaultsExperimentRenders: the faults experiment completes, reports
// the shrunken partition, and its kill emits lifecycle telemetry.
func TestFaultsExperimentRenders(t *testing.T) {
	o := fastOptions()
	// The ring must hold every event of the run: cells execute in
	// parallel, so the kill cell's NodeKilled can be emitted early and
	// overwritten by later cells in a default-sized ring. One cell
	// synchronization emits a SyncBarrier, a PolicyDecision and a
	// job-level BudgetViolation, plus per node a few transition events
	// (cap write, throttle, window violation, fault); 8 per node is a
	// wide margin over the measured volume (under one per node).
	const nodes = 8
	spec := specAt(nodes, defaultDim, 1, o.Steps, workload.Tasks("msd"))
	cells := len(faultScenarios(spec, o.Steps)) * (1 + len(PolicyNames()))
	hub := telemetry.New(telemetry.Options{RingSize: cells * (o.Steps*(3+8*nodes) + 2)})
	e, ok := Get("faults")
	if !ok {
		t.Fatal("faults experiment not registered")
	}
	o.Telemetry = hub
	var buf bytes.Buffer
	if err := e.Run(context.Background(), o, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "kill ana node 7") {
		t.Errorf("missing kill scenario table:\n%s", out)
	}
	if !strings.Contains(out, "4+3") {
		t.Errorf("kill scenario does not report the shrunken partition:\n%s", out)
	}
	var sawKill, sawDecision bool
	for _, ev := range hub.Events() {
		switch ev.Kind() {
		case "NodeKilled":
			sawKill = true
		case "PolicyDecision":
			sawDecision = true
		}
	}
	if !sawKill || !sawDecision {
		t.Errorf("events missing: NodeKilled=%v PolicyDecision=%v", sawKill, sawDecision)
	}
}

// TestFaultsSeesawReconverges pins the experiment's headline claim at
// the bench layer: after the analysis-node kill, SeeSAw's post-fault
// slack re-converges below the static division's, and it finishes the
// job sooner.
func TestFaultsSeesawReconverges(t *testing.T) {
	steps := 60
	spec := specAt(8, defaultDim, 1, steps, workload.Tasks("msd"))
	plan, err := fault.Parse("kill:7@20")
	if err != nil {
		t.Fatal(err)
	}
	run := func(policy string) (total, slack float64) {
		res, err := runCell(context.Background(), cell{spec: spec, policy: policy, window: 1,
			faults: plan, jobSeed: 11, runSeed: 12})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.TotalTime), res.SyncLog.MeanSlackFrom(41)
	}
	staticT, staticS := run("static")
	seesawT, seesawS := run("seesaw")
	if staticS <= 0.05 {
		t.Fatalf("static post-kill slack %v too small: kill did not unbalance the run", staticS)
	}
	if seesawS >= staticS*0.75 {
		t.Errorf("seesaw post-kill slack %v did not re-converge below static %v", seesawS, staticS)
	}
	if seesawT >= staticT {
		t.Errorf("seesaw %v not faster than static %v after the kill", seesawT, staticT)
	}
}
