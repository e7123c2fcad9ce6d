package cosim

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"seesaw/internal/cluster"
	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/telemetry"
	"seesaw/internal/trace"
	"seesaw/internal/units"
)

// TestSweepMatchesPerNodeAPI runs each case twice — through Episode.Run,
// whose window kernel sweeps the node bank, and through a reference
// loop that drives a second cluster only through the per-node API
// (SetNoiseTrace, RunAdapted, Idle and the RAPL domain's caps and
// energy), the way an external replica of the kernel would — and
// requires the two to agree byte for byte. It keeps the node views and
// the sweep from drifting apart.
func TestSweepMatchesPerNodeAPI(t *testing.T) {
	cases := []struct {
		name   string
		policy string
		mutate func(*Config)
	}{
		{"fault-free", "seesaw", func(c *Config) { c.TraceSegments = true }},
		{"kill-sim", "seesaw", func(c *Config) { c.Faults = mustPlan(t, "kill:1@10") }},
		{"kill-ana", "power-aware", func(c *Config) { c.Faults = mustPlan(t, "kill:6@12") }},
		{"slow", "time-aware", func(c *Config) { c.Faults = mustPlan(t, "slow:2@5x2.5+8") }},
		{"gpu-kill", "seesaw", func(c *Config) {
			c.Classes = machine.MustParseClassMap("0-1:gpu,6:gpu")
			c.Faults = mustPlan(t, "kill:5@9")
		}},
		{"long-short", "seesaw", func(c *Config) { c.CapMode = CapLongShort }},
		{"telemetry", "seesaw", func(c *Config) {
			c.Telemetry = telemetry.New(telemetry.Options{})
			c.TraceSegments = true
		}},
		{"no-noise-memo", "seesaw", func(c *Config) {
			c.NoNoiseMemo = true
			c.Faults = mustPlan(t, "kill:2@7,slow:5@3x2+4")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Spec: smallSpec(), Constraints: smallCons(), CapMode: CapLong,
				Seed: 7, RunSeed: 8, Noise: machine.DefaultNoise()}
			tc.mutate(&cfg)
			newPolicy := func() core.Policy {
				pol, err := policy.New(tc.policy, cfg.Constraints, 1)
				if err != nil {
					t.Fatal(err)
				}
				return pol
			}
			st, err := NewJobState(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ep, err := st.NewEpisode()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ep.Run(context.Background(), EpisodeParams{Policy: newPolicy(), Constraints: cfg.Constraints, CapMode: cfg.CapMode})
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Telemetry != nil {
				// The reference gets its own hub: the instrumented RAPL
				// path must agree, not the two event streams interleave.
				cfg.Telemetry = telemetry.New(telemetry.Options{})
			}
			want := perNodeRun(t, cfg, newPolicy(), got.OverheadPerSync)
			compareResults(t, got, want)
		})
	}
}

// perNodeRun is the reference: Episode.Run's schedule, fault, idle,
// measurement and cap-write sequence over a cluster driven node by
// node through the exported per-node API.
func perNodeRun(t *testing.T, cfg Config, pol core.Policy, overhead units.Seconds) *Result {
	t.Helper()
	spec := cfg.Spec
	nSim := spec.SimNodes
	n := nSim + spec.AnaNodes
	cl, err := cluster.New(cluster.Config{SimNodes: nSim, AnaNodes: spec.AnaNodes, Noise: cfg.Noise,
		Classes: cfg.Classes, JobSeed: cfg.Seed, RunSeed: cfg.RunSeed, Faults: cfg.Faults, Telemetry: cfg.Telemetry})
	if err != nil {
		t.Fatal(err)
	}
	type interval struct {
		sim, ana []machine.Phase
		sync     bool
	}
	var ivs []interval
	prev := 0
	for k, end := range spec.SyncSchedule() {
		ivs = append(ivs, interval{spec.SimIntervalIdx(prev, end, k), spec.AnaInterval(end), true})
		prev = end
	}
	if prev < spec.Steps {
		ivs = append(ivs, interval{sim: spec.SimIntervalIdx(prev, spec.Steps, len(ivs))})
	}
	phasesOf := func(v interval, i int) []machine.Phase {
		if i < nSim {
			return v.sim
		}
		return v.ana
	}
	if !cfg.NoNoiseMemo {
		// Each node replays its own stream's draws; without the memo it
		// draws them live.
		for i := 0; i < n; i++ {
			draws := 0
			for _, v := range ivs {
				for _, ph := range phasesOf(v, i) {
					draws += machine.Draws(&ph, &cfg.Noise)
				}
			}
			cl.Node(i).SetNoiseTrace(machine.JitterTrace(cfg.RunSeed, i, draws))
		}
	}
	initial := make([]units.Watts, n)
	cl.InitialCaps(cfg.Constraints, initial)
	setCap := func(i int, w units.Watts) {
		cl.Node(i).RAPL().SetLongCap(w)
		if cfg.CapMode == CapLongShort {
			cl.Node(i).RAPL().SetShortCap(w)
		}
	}
	for i := 0; i < n; i++ {
		setCap(i, initial[i])
	}

	res := &Result{SyncLog: &trace.SyncLog{}, OverheadPerSync: overhead}
	traced := func(i int) bool { return cfg.TraceSegments && (i == 0 || i == nSim) }
	addSeg := func(i int, s Segment) {
		if i == 0 {
			res.SimSegments = append(res.SimSegments, s)
		} else {
			res.AnaSegments = append(res.AnaSegments, s)
		}
	}
	busy := make([]units.Seconds, n)
	last := make([]units.Joules, n)
	measures := make([]core.NodeMeasure, n)
	var clock, carry units.Seconds
	for k, v := range ivs {
		res.FaultLog = append(res.FaultLog, cl.Advance(clock, k+1)...)
		for i := 0; i < n; i++ {
			if !cl.Alive(i) {
				busy[i] = 0
				continue
			}
			node := cl.Node(i)
			scale, model := cl.WorkScale(cl.Role(i)), node.Model()
			var busyT units.Seconds
			for _, ph := range phasesOf(v, i) {
				if scale != 1 {
					ph.Nominal = units.Seconds(float64(ph.Nominal) * scale)
				}
				ph = model.Adapt(ph)
				ex := node.RunAdapted(&ph, &cfg.Noise)
				busyT += ex.Duration
				if traced(i) {
					addSeg(i, Segment{Start: clock + busyT - ex.Duration, Duration: ex.Duration, Power: ex.Power})
				}
			}
			busy[i] = busyT + carry
		}
		var wall units.Seconds
		for _, b := range busy {
			wall = max(wall, b)
		}
		for i := 0; i < n; i++ {
			if !cl.Alive(i) {
				measures[i] = core.NodeMeasure{NodeID: i, Health: core.Dead, Role: cl.Role(i)}
				continue
			}
			node := cl.Node(i)
			if wait := wall - busy[i]; wait > 0 {
				ex := node.Idle(wait)
				if traced(i) {
					addSeg(i, Segment{Start: clock + busy[i], Duration: wait, Power: ex.Power})
				}
			}
			en := node.RAPL().Energy()
			measures[i] = core.NodeMeasure{
				NodeID: i, Health: cl.Health(i), Role: cl.Role(i),
				Time: wall, BusyTime: busy[i], EpochTime: busy[i] + (wall-busy[i])*epochWaitShare,
				Power: units.AvgPower(en-last[i], wall), Cap: node.RAPL().LongCap(),
				NodeCapability: cl.Capability(i),
			}
			last[i] = en
		}
		clock += wall
		res.SyncLog.Add(buildRecord(k+1, measures, nSim, overhead))
		carry = 0
		if v.sync {
			if caps := pol.Allocate(k+1, measures); caps != nil {
				for i := 0; i < n; i++ {
					if cl.Alive(i) && caps[i] > 0 && caps[i] != cl.Node(i).RAPL().LongCap() {
						setCap(i, caps[i])
					}
				}
			}
			carry = overhead
		}
	}
	res.TotalTime = clock
	for i := 0; i < n; i++ {
		res.TotalEnergy += cl.Node(i).RAPL().Energy()
		res.FinalCaps = append(res.FinalCaps, cl.Node(i).RAPL().LongCap())
	}
	res.AliveSim, res.AliveAna = cl.AliveCounts()
	return res
}

// compareResults requires byte-identical episode outcomes.
func compareResults(t *testing.T, got, want *Result) {
	t.Helper()
	var g, w bytes.Buffer
	if err := got.SyncLog.WriteCSV(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.SyncLog.WriteCSV(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Errorf("SyncLog CSV differs:\nsweep:\n%s\nper-node:\n%s", g.String(), w.String())
	}
	if got.TotalTime != want.TotalTime || got.TotalEnergy != want.TotalEnergy {
		t.Errorf("totals: sweep %v / %v, per-node %v / %v", got.TotalTime, got.TotalEnergy, want.TotalTime, want.TotalEnergy)
	}
	if !reflect.DeepEqual(got.FinalCaps, want.FinalCaps) {
		t.Errorf("FinalCaps: sweep %v, per-node %v", got.FinalCaps, want.FinalCaps)
	}
	if !reflect.DeepEqual(got.FaultLog, want.FaultLog) {
		t.Errorf("FaultLog: sweep %v, per-node %v", got.FaultLog, want.FaultLog)
	}
	if !reflect.DeepEqual(got.SimSegments, want.SimSegments) || !reflect.DeepEqual(got.AnaSegments, want.AnaSegments) {
		t.Errorf("segments differ: sweep %d/%d, per-node %d/%d", len(got.SimSegments), len(got.AnaSegments), len(want.SimSegments), len(want.AnaSegments))
	}
	if got.AliveSim != want.AliveSim || got.AliveAna != want.AliveAna {
		t.Errorf("alive: sweep %d/%d, per-node %d/%d", got.AliveSim, got.AliveAna, want.AliveSim, want.AliveAna)
	}
}
