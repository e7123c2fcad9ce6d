package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"seesaw/internal/analysis"
	"seesaw/internal/core"
	"seesaw/internal/insitu"
	"seesaw/internal/lammps"
	"seesaw/internal/mpi"
	"seesaw/internal/telemetry"
)

// insituTraced is the traced run of the in-situ workload: an untraced
// reference phase, one job with the timing policy wrapper, one job with
// telemetry (for its event volume and collective counts), and a ledger
// of the mini-MD, analysis and mpi layers at the job's shape, reconciled
// against the traced job time.
func insituTraced(ctx context.Context, cfg runConfig, prov *provenance) (report, error) {
	chk := newChecker(cfg, prov)
	l := newLedger(prov)
	if _, _, err := insituJob(ctx, cfg, 0, nil); err != nil {
		return report{}, fmt.Errorf("warm-up job: %w", err)
	}
	ph, err := timedInsitu(ctx, cfg, cfg.seconds/2, chk)
	if err != nil {
		return report{}, err
	}
	l.goRuntime(ph)
	untraced := median(ph.seconds)

	var tp *timedPolicy
	t := time.Now()
	res, job, err := insituJob(ctx, cfg, 0, func(p core.Policy) core.Policy {
		tp = &timedPolicy{inner: p}
		return tp
	})
	traced := since(t)
	chk.compare(0, insituOutcome(0, job, res, err), "traced job")
	if err != nil {
		return report{}, err
	}
	l.set("trace.overhead_ratio", traced/untraced, 1)
	l.set("policy.seesaw.allocate_us", float64(tp.ns)/float64(tp.calls)/1e3, tp.calls)
	l.set("policy.allocate_share", float64(tp.ns)/1e9/traced, 1)

	sink := &countingSink{}
	hub := telemetry.New(telemetry.Options{Sink: sink})
	jobs, err := insituJobs(cfg.seed, cfg.tiny)
	if err != nil {
		return report{}, err
	}
	hj := jobs[0]
	hj.Telemetry = hub
	t = time.Now()
	hres, herr := insitu.Run(ctx, hj)
	instrumented := since(t)
	chk.compare(0, insituOutcome(0, hj, hres, herr), "instrumented job")
	if herr != nil {
		return report{}, herr
	}
	l.set("telemetry.overhead_ratio", instrumented/untraced, 1)
	l.set("telemetry.events_per_episode", float64(sink.lines.Load()), 1)
	l.set("telemetry.sink_kb_per_episode", float64(sink.bytes.Load())/1024, 1)
	l.set("telemetry.dropped", float64(hub.Dropped()), 1)

	mdSec, frames, err := lammpsLedger(ctx, job, l)
	if err != nil {
		return report{}, err
	}
	anaSec, err := analysisLedger(frames, l)
	if err != nil {
		return report{}, err
	}
	mpiSec, err := mpiLedger(job.SimRanks+job.AnaRanks, cfg.tiny, collectiveCounts(hub), l)
	if err != nil {
		return report{}, err
	}
	attributed := mdSec + anaSec + mpiSec + float64(tp.ns)/1e9
	l.set("insitu.unattributed_share", 1-attributed/traced, 1)
	return report{Attempted: chk.attempted, Failed: chk.failed, Metrics: l.metrics()}, nil
}

// lammpsLedger integrates the job's mini-MD system once, in the call
// sequence the in-situ driver records per job (a frame and a neighbor
// rebuild at every synchronization step, otherwise a rebuild when the
// skin is exceeded), timing each step and each neighbor build. It
// returns the total seconds and the frames shipped.
func lammpsLedger(ctx context.Context, job insitu.Config, l *ledger) (float64, []*lammps.Frame, error) {
	sys, err := lammps.New(job.Lammps)
	if err != nil {
		return 0, nil, err
	}
	var total, neighbor float64
	builds := 0
	var frames []*lammps.Frame
	for step := 1; step <= job.Steps; step++ {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		t := time.Now()
		sys.InitialIntegrate()
		sync := step%job.SyncEvery == 0
		if sync {
			f := sys.Snapshot()
			frames = append(frames, &f)
		}
		if sync || sys.NeedsRebuild() {
			tn := time.Now()
			sys.BuildNeighbors()
			neighbor += since(tn)
			builds++
		}
		sys.ComputeForces()
		sys.FinalIntegrate()
		keep += sys.KineticEnergy() + sys.PotentialEnergy()
		total += since(t)
	}
	l.set("lammps.step_us", total/float64(job.Steps)*1e6, job.Steps)
	l.set("lammps.neighbor_us", neighbor/float64(builds)*1e6, builds)
	return total, frames, nil
}

// analysisLedger feeds the recorded frames through each of the five
// analysis kernels, as the driver's per-job analysis recording does,
// and returns the total seconds.
func analysisLedger(frames []*lammps.Frame, l *ledger) (float64, error) {
	total := 0.0
	for _, name := range allAnalyses {
		a, err := analysis.New(name)
		if err != nil {
			return 0, err
		}
		t := time.Now()
		for _, f := range frames {
			a.Consume(f)
		}
		d := since(t)
		total += d
		l.set("analysis."+name+".consume_us", d/float64(len(frames))*1e6, len(frames))
	}
	return total, nil
}

// collectiveCounts reads how many collectives of each operation a job
// ran from the rendezvous-wait histogram of its telemetry: every
// participating rank observes one wait per collective.
func collectiveCounts(hub *telemetry.Hub) map[string]float64 {
	out := map[string]float64{}
	for _, f := range hub.Registry().Snapshot() {
		if f.Name != "seesaw_barrier_wait_seconds" {
			continue
		}
		for _, s := range f.Series {
			op := s.Labels["op"]
			if strings.HasPrefix(op, "allreduce") {
				op = "allreduce"
			}
			out[op] += float64(s.Count)
		}
	}
	return out
}

// mpiLedger times Barrier, AllreduceSum, Bcast and Allgather at the
// job's world size through mpi.Run, as rank 0 sees them between
// barriers, and returns the job's collective time those costs account
// for: each operation's per-rank wait count divided by the world size,
// times its cost.
func mpiLedger(world int, tiny bool, counts map[string]float64, l *ledger) (float64, error) {
	reps := 20
	if tiny {
		reps = 5
	}
	ops := []string{"barrier", "allreduce", "bcast", "allgather"}
	secs := make([]float64, len(ops))
	err := mpi.Run(world, mpi.DefaultCost(), func(r *mpi.Rank) {
		c := r.World()
		vals := []float64{float64(r.WorldRank())}
		for k, op := range ops {
			c.Barrier()
			t := time.Now()
			for i := 0; i < reps; i++ {
				switch op {
				case "barrier":
					c.Barrier()
				case "allreduce":
					c.AllreduceSum(vals)
				case "bcast":
					c.Bcast(0, vals, 8)
				case "allgather":
					c.Allgather(vals, 8)
				}
			}
			if r.WorldRank() == 0 {
				secs[k] = since(t) / float64(reps)
			}
		}
		c.Barrier()
	})
	if err != nil {
		return 0, fmt.Errorf("mpi ledger: %w", err)
	}
	total := 0.0
	for k, op := range ops {
		l.set("mpi."+op+"_us", secs[k]*1e6, reps)
		total += counts[op] / float64(world) * secs[k]
	}
	return total, nil
}
