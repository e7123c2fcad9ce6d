// Benchmarks regenerating the paper's tables and figures (one benchmark
// per artifact, exercising the same code paths as `seesawctl run <id>`
// at reduced step counts so `go test -bench` stays tractable), plus
// micro-benchmarks of the performance-critical substrates.
package seesaw_test

import (
	"context"
	"io"
	"testing"

	"seesaw/internal/analysis"
	"seesaw/internal/bench"
	"seesaw/internal/core"
	"seesaw/internal/cosim"
	"seesaw/internal/lammps"
	"seesaw/internal/machine"
	"seesaw/internal/mpi"
	"seesaw/internal/rapl"
	"seesaw/internal/telemetry"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// benchOptions keeps each experiment iteration affordable inside a
// benchmark loop while exercising the full pipeline.
func benchOptions() bench.Options {
	return bench.Options{Steps: 40, Runs: 1, BaseSeed: 1}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), benchOptions(), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig1PowerTrace(b *testing.B)       { runExperiment(b, "fig1") }
func BenchmarkFig2Illustration(b *testing.B)     { runExperiment(b, "fig2") }
func BenchmarkTable1Variability(b *testing.B)    { runExperiment(b, "table1") }
func BenchmarkFig3aPolicies(b *testing.B)        { runExperiment(b, "fig3a") }
func BenchmarkFig3bScale(b *testing.B)           { runExperiment(b, "fig3b") }
func BenchmarkFig4Allocation(b *testing.B)       { runExperiment(b, "fig4") }
func BenchmarkFig5AllocVsMeasured(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFig6Sensitivity(b *testing.B)      { runExperiment(b, "fig6") }
func BenchmarkTable2MixedIntervals(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig7Unbalanced(b *testing.B)       { runExperiment(b, "fig7") }
func BenchmarkFig8PowerHeadroom(b *testing.B)    { runExperiment(b, "fig8") }
func BenchmarkFig9aOverhead(b *testing.B)        { runExperiment(b, "fig9a") }
func BenchmarkFig9bStandalone(b *testing.B)      { runExperiment(b, "fig9b") }

// Micro-benchmarks of the substrates.

func BenchmarkSeeSAwAllocate(b *testing.B) {
	cons := core.Constraints{Budget: 110 * 128, MinCap: 98, MaxCap: 215}
	ss := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
	nodes := make([]core.NodeMeasure, 128)
	for i := range nodes {
		role := core.RoleSimulation
		if i >= 64 {
			role = core.RoleAnalysis
		}
		nodes[i] = core.NodeMeasure{Role: role, Time: 4, BusyTime: 4, EpochTime: 4,
			Power: units.Watts(100 + i%20), Cap: 110}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ss.Allocate(i+1, nodes)
	}
}

func BenchmarkPowerAwareAllocate(b *testing.B) {
	cons := core.Constraints{Budget: 110 * 128, MinCap: 98, MaxCap: 215}
	pa := core.MustNewPowerAware(core.DefaultPowerAwareConfig(cons))
	nodes := make([]core.NodeMeasure, 128)
	for i := range nodes {
		nodes[i] = core.NodeMeasure{Role: core.Role(i % 2), Time: 4,
			Power: units.Watts(100 + i%12), Cap: 110}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pa.Allocate(i+1, nodes)
	}
}

func BenchmarkTimeAwareAllocate(b *testing.B) {
	cons := core.Constraints{Budget: 110 * 128, MinCap: 98, MaxCap: 215}
	ta := core.MustNewTimeAware(core.DefaultTimeAwareConfig(cons))
	nodes := make([]core.NodeMeasure, 128)
	for i := range nodes {
		nodes[i] = core.NodeMeasure{Role: core.Role(i % 2),
			Time: units.Seconds(4 + float64(i%16)/8), Cap: 110}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ta.Allocate(i+1, nodes)
	}
}

func BenchmarkCosim128Nodes(b *testing.B) {
	spec := workload.Spec{SimNodes: 64, AnaNodes: 64, Dim: 16, J: 1, Steps: 50,
		Analyses: workload.Tasks("msd")}
	cons := core.Constraints{Budget: 110 * 128, MinCap: 98, MaxCap: 215}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ss := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
		if _, err := cosim.Run(context.Background(), cosim.Config{Spec: spec, Policy: ss, Constraints: cons,
			CapMode: cosim.CapLong, Seed: uint64(i), Noise: machine.DefaultNoise()}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkCosimTelemetry runs the 128-node cell with the given hub.
// The Off/On/Sink trio quantifies the observability tax: Off measures
// the disabled hooks (one nil pointer comparison each, zero
// allocations — see internal/telemetry's
// TestDisabledHooksDoNotAllocate), and must stay within the noise floor
// (< 2%) of BenchmarkCosim128Nodes; On prices full metric and event
// collection into the ring, and Sink adds JSONL encoding (On has no
// sink, so it never priced encoding). On a 2-vCPU Xeon at -cpu 1,
// medians of six interleaved rounds read 3.4 / 5.4 / 5.6 ms per job
// with 1520 / 2937 / 2939 allocations, against 3.6 / 5.1 / 5.9 ms and
// 1520 / 2937 / 4029 with the earlier reflection-based encoder.
func benchmarkCosimTelemetry(b *testing.B, hub *telemetry.Hub) {
	b.Helper()
	spec := workload.Spec{SimNodes: 64, AnaNodes: 64, Dim: 16, J: 1, Steps: 50,
		Analyses: workload.Tasks("msd")}
	cons := core.Constraints{Budget: 110 * 128, MinCap: 98, MaxCap: 215}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ss := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
		if _, err := cosim.Run(context.Background(), cosim.Config{Spec: spec, Policy: ss, Constraints: cons,
			CapMode: cosim.CapLong, Seed: uint64(i), Noise: machine.DefaultNoise(),
			Telemetry: hub}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCosimTelemetryOff(b *testing.B) { benchmarkCosimTelemetry(b, nil) }

func BenchmarkCosimTelemetryOn(b *testing.B) {
	benchmarkCosimTelemetry(b, telemetry.New(telemetry.Options{}))
}

func BenchmarkCosimTelemetrySink(b *testing.B) {
	benchmarkCosimTelemetry(b, telemetry.New(telemetry.Options{Sink: io.Discard}))
}

func BenchmarkLammpsStep(b *testing.B) {
	sys := lammps.MustNew(lammps.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys.InitialIntegrate()
		if sys.NeedsRebuild() {
			sys.BuildNeighbors()
		}
		sys.ComputeForces()
		sys.FinalIntegrate()
	}
}

func BenchmarkLammpsNeighborBuild(b *testing.B) {
	sys := lammps.MustNew(lammps.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys.BuildNeighbors()
	}
}

func BenchmarkAnalysisMSD(b *testing.B) {
	sys := lammps.MustNew(lammps.DefaultConfig())
	frame := sys.Snapshot()
	m := analysis.NewMSD()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Consume(&frame)
	}
}

func BenchmarkAnalysisRDF(b *testing.B) {
	sys := lammps.MustNew(lammps.DefaultConfig())
	frame := sys.Snapshot()
	r := analysis.NewRDF(64, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Consume(&frame)
	}
}

func BenchmarkMPIAllreduce64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(64, mpi.DefaultCost(), func(r *mpi.Rank) {
			r.World().AllreduceSum([]float64{1, 2, 3, 4})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMachinePhase(b *testing.B) {
	n := machine.DefaultNode(0, machine.DefaultNoise(), 1)
	n.RAPL().SetLongCap(110)
	n.Idle(0.02)
	ph := machine.Phase{Name: "p", Nominal: 0.001, Demand: 130, Saturation: 140, Sensitivity: 0.9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Run(ph, machine.DefaultNoise())
	}
}

func BenchmarkRAPLAdvance(b *testing.B) {
	d := rapl.MustNewDomain(rapl.Theta())
	d.SetLongCap(110)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Advance(0.01, 108)
	}
}
