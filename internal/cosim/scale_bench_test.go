package cosim

import (
	"context"
	"fmt"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/units"
	"seesaw/internal/workload"
)

// heteroConfig is one co-simulated job at the given world size with
// half of each partition on the gpu class, shrunk to a few steps so
// ns/op tracks the per-interval substrate cost — cluster construction
// with class resolution, per-node capability plumbing, and the
// allocators' capability-weighted waterfill — rather than the MD
// physics.
func heteroConfig(world int) Config {
	half := world / 2
	classes := machine.MustParseClassMap(fmt.Sprintf("%d-%d:gpu,%d-%d:gpu",
		half/2, half-1, half+half/2, world-1))
	cons := core.Constraints{Budget: units.Watts(110 * world), MinCap: 98, MaxCap: 215}
	pol := core.MustNewSeeSAw(core.SeeSAwConfig{Constraints: cons, Window: 1})
	return Config{
		Spec: workload.Spec{
			SimNodes: half, AnaNodes: world - half,
			Dim: 16, J: 2, Steps: 4, Analyses: workload.Tasks("msd"),
		},
		Policy:      pol,
		Constraints: cons,
		CapMode:     CapLong,
		Seed:        11,
		RunSeed:     12,
		Classes:     classes,
	}
}

// BenchmarkHetero runs the space-shared driver on a mixed CPU/GPU
// partition at increasing node counts, measuring what heterogeneity
// adds to the hot path: per-class node construction, capability lookup
// per measurement, and the waterfill division replacing the uniform
// split in every allocation.
func BenchmarkHetero(b *testing.B) {
	for _, world := range []int{256, 1024} {
		b.Run(fmt.Sprintf("nodes=%d", world), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Rebuilt per iteration: the seesaw policy is stateful.
				res, err := Run(context.Background(), heteroConfig(world))
				if err != nil {
					b.Fatal(err)
				}
				if res.TotalTime <= 0 {
					b.Fatal("non-positive total time")
				}
			}
		})
	}
}

// BenchmarkEpisodeRun times pooled, memoized episodes at the policy
// search's headline shape — 512+512 nodes, dim 16, 400 steps, msd,
// default noise, long caps — cycling through every registered policy at
// windows 1 and 2 and four budgets, as a search grid over one job does,
// and reports the window kernel's cost per node per synchronization
// interval. The JobState and Episode are built once outside the timer,
// as a search worker holds them across grid points.
func BenchmarkEpisodeRun(b *testing.B) {
	const nodes = 1024
	st, err := NewJobState(Config{
		Spec: workload.Spec{
			SimNodes: nodes / 2, AnaNodes: nodes / 2,
			Dim: 16, J: 1, Steps: 400, Analyses: workload.Tasks("msd"),
		},
		Seed:    11,
		RunSeed: 12,
		Noise:   machine.DefaultNoise(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ep, err := st.NewEpisode()
	if err != nil {
		b.Fatal(err)
	}
	type point struct {
		policy string
		window int
		cons   core.Constraints
	}
	var grid []point
	for _, w := range []int{1, 2} {
		for _, perNode := range []float64{100, 107, 114, 121} {
			for _, name := range policy.Names() {
				cons := core.Constraints{Budget: units.Watts(perNode * nodes), MinCap: 98, MaxCap: 215}
				grid = append(grid, point{name, w, cons})
			}
		}
	}
	nodeSyncs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := grid[i%len(grid)]
		pol, err := policy.New(pt.policy, pt.cons, pt.window)
		if err != nil {
			b.Fatal(err)
		}
		res, err := ep.Run(context.Background(), EpisodeParams{Policy: pol, Constraints: pt.cons, CapMode: CapLong})
		if err != nil {
			b.Fatal(err)
		}
		nodeSyncs += nodes * res.SyncLog.Len()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodeSyncs), "ns/node-sync")
}
