package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"

	"seesaw/internal/core"
	"seesaw/internal/insitu"
	"seesaw/internal/machine"
	"seesaw/internal/rollout"
	"seesaw/internal/trace"
)

// outcome is one episode's result in the form the output gate checks:
// a rollout outcome or an in-situ job, normalized.
type outcome struct {
	key    string
	err    error
	time   float64
	energy float64
	// caps are the live nodes' final per-node caps; lo and hi their
	// allowed range, index for index.
	caps, lo, hi []float64
	budget       float64
	syncLog      *trace.SyncLog
	// analysis holds an in-situ job's analysis outputs.
	analysis map[string][]float64
}

// searchOutcomes normalizes a Batch result.
func searchOutcomes(outs []rollout.Outcome) []outcome {
	res := make([]outcome, len(outs))
	for i, o := range outs {
		res[i] = searchOutcome(o.Point, o.Result, o.Err)
	}
	return res
}

// searchOutcome normalizes one rollout.
func searchOutcome(p rollout.Point, r *rollout.Result, err error) outcome {
	o := outcome{key: p.Key, err: err}
	if err != nil {
		return o
	}
	if r == nil || r.Cosim == nil {
		o.err = fmt.Errorf("no cosim result")
		return o
	}
	o.time, o.energy, o.syncLog = float64(r.TotalTime), float64(r.TotalEnergy), r.SyncLog
	n := p.Spec.Workload.SimNodes + p.Spec.Workload.AnaNodes
	o.budget = float64(p.Spec.CapPerNode) * float64(n)
	dead := map[int]bool{}
	for _, tr := range r.Cosim.FaultLog {
		if tr.To == core.Dead {
			dead[tr.NodeID] = true
		}
	}
	for i, c := range r.Cosim.FinalCaps {
		if dead[i] {
			continue
		}
		lo, hi := capRange(p.Spec.Classes, i)
		o.caps = append(o.caps, float64(c))
		o.lo = append(o.lo, lo)
		o.hi = append(o.hi, hi)
	}
	return o
}

// capRange is node i's allowed cap range: its device class's RAPL range
// on a heterogeneous cluster, the job's constraint range otherwise.
func capRange(classes *machine.ClassMap, i int) (float64, float64) {
	if classes.Empty() {
		return minCap, maxCap
	}
	cl := machine.DefaultClass()
	if name := classes.ClassAt(i); name != "" {
		if c, ok := machine.PresetClass(name); ok {
			cl = c
		}
	}
	return float64(cl.Rapl.MinCap), float64(cl.Rapl.TDP)
}

// insituOutcome normalizes one in-situ job; the final caps are the
// per-node caps in force during the last synchronization interval.
func insituOutcome(k int, job insitu.Config, r *insitu.Result, err error) outcome {
	o := outcome{key: fmt.Sprintf("job%d", k), err: err}
	if err != nil {
		return o
	}
	o.time, o.energy, o.syncLog = float64(r.MainLoopTime), float64(r.TotalEnergy), r.SyncLog
	o.analysis = r.AnalysisResults
	o.budget = float64(job.Constraints.Budget)
	if n := r.SyncLog.Len(); n > 0 {
		last := r.SyncLog.Records[n-1]
		for i := 0; i < job.SimRanks+job.AnaRanks; i++ {
			c := last.AnaCap
			if i < job.SimRanks {
				c = last.SimCap
			}
			o.caps = append(o.caps, float64(c))
			o.lo = append(o.lo, minCap)
			o.hi = append(o.hi, maxCap)
		}
	}
	return o
}

// budgetSlack absorbs floating-point rounding in the cap sum.
const budgetSlack = 1e-9

// violations lists the invariants an outcome breaks: live final caps
// sum to no more than the budget, each cap lies within its class range,
// time and energy are positive and finite.
func violations(o outcome) []string {
	if o.err != nil {
		return []string{"error: " + o.err.Error()}
	}
	var v []string
	pos := func(x float64) bool { return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }
	if !pos(o.time) {
		v = append(v, fmt.Sprintf("time %g not positive", o.time))
	}
	if !pos(o.energy) {
		v = append(v, fmt.Sprintf("energy %g not positive", o.energy))
	}
	if len(o.caps) == 0 {
		v = append(v, "no final caps")
	}
	sum := 0.0
	for i, c := range o.caps {
		sum += c
		if c < o.lo[i] || c > o.hi[i] || math.IsNaN(c) {
			v = append(v, fmt.Sprintf("cap %d = %g outside [%g, %g]", i, c, o.lo[i], o.hi[i]))
			break
		}
	}
	if sum > o.budget*(1+budgetSlack) {
		v = append(v, fmt.Sprintf("live caps sum to %g > budget %g", sum, o.budget))
	}
	return v
}

// digest hashes everything an outcome reports that the simulator
// computes: totals, final caps, the sync log and analysis outputs.
func digest(o outcome) string {
	h := sha256.New()
	b := []byte(o.key)
	if o.err != nil {
		b = append(b, "error: "+o.err.Error()...)
		h.Write(b)
		return hex.EncodeToString(h.Sum(nil))
	}
	f := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	f(o.time)
	f(o.energy)
	for _, c := range o.caps {
		f(c)
	}
	if o.syncLog != nil {
		for _, r := range o.syncLog.Records {
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Step))
			f(float64(r.SimTime))
			f(float64(r.AnaTime))
			f(float64(r.SimPower))
			f(float64(r.AnaPower))
			f(float64(r.SimCap))
			f(float64(r.AnaCap))
			f(float64(r.Overhead))
		}
	}
	names := make([]string, 0, len(o.analysis))
	for n := range o.analysis {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b = append(b, n...)
		for _, x := range o.analysis[n] {
			f(x)
		}
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}

// combine hashes per-outcome digests in enumeration order.
func combine(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checker is the output gate: it counts attempted and failed episodes
// across passes over one enumeration.
type checker struct {
	cfg  runConfig
	prov *provenance
	// first holds the first pass's per-outcome digests; every later
	// pass must reproduce them.
	first             []string
	attempted, failed int
}

func newChecker(cfg runConfig, prov *provenance) *checker {
	return &checker{cfg: cfg, prov: prov}
}

// pass checks one pass over the enumeration (a prefix of it for a final
// partial pass). The first complete pass is compared against the pinned
// digest when the run uses the default seed; a mismatch fails every
// episode of that pass, since the pin does not say which one moved.
func (c *checker) pass(outs []outcome) {
	ds := make([]string, len(outs))
	bad := make([]bool, len(outs))
	for i, o := range outs {
		ds[i] = digest(o)
		if v := violations(o); len(v) > 0 {
			bad[i] = true
			c.prov.fail("%s: %v", o.key, v)
		}
	}
	if c.first == nil {
		c.first = ds
		sum := combine(ds)
		c.prov.Digest = sum
		if pin := c.cfg.pinned[c.cfg.workload]; c.cfg.seed == defaultSeed && pin != "" {
			c.prov.DigestPinned = pin
			if pin != sum {
				c.prov.fail("digest %s does not match pinned %s", sum, pin)
				for i := range bad {
					bad[i] = true
				}
			}
		}
	} else {
		for i, d := range ds {
			if i >= len(c.first) || d != c.first[i] {
				bad[i] = true
				c.prov.fail("%s: outcome differs from the first pass", outs[i].key)
			}
		}
	}
	c.attempted += len(outs)
	for _, b := range bad {
		if b {
			c.failed++
		}
	}
}

// compare checks one outcome produced by another execution path against
// the first pass's outcome at enumeration index i.
func (c *checker) compare(i int, o outcome, path string) {
	c.attempted++
	v := violations(o)
	if len(v) > 0 {
		c.prov.fail("%s via %s: %v", o.key, path, v)
	}
	same := i < len(c.first) && digest(o) == c.first[i]
	if !same {
		c.prov.fail("%s: %s differs from Batch", o.key, path)
	}
	if len(v) > 0 || !same {
		c.failed++
	}
}
