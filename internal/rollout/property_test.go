package rollout

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"testing"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/machine"
	"seesaw/internal/units"
)

// propertySeed fixes the sweep's fault plans; a failure names the
// point key, which reproduces it with `seesawctl search`.
const propertySeed = 20201

// TestPropertySweep runs a seeded grid — 8/16/24 nodes, budgets from
// the uniform floor (98 W/node) to TDP, four fault plans (none, a kill,
// slow excursions, a kill plus an excursion), four class maps and every
// registered policy — through Batch and checks each outcome against
// the budget and physics invariants: either the point is rejected as
// infeasible (core.InfeasibleBudgetError) or it ends with finite,
// positive time and energy, its live final caps summing to at most the
// budget (up to the rounding of float64 shares), and each live cap
// inside its device class's [MinCap, TDP].
func TestPropertySweep(t *testing.T) {
	const steps = 16
	var points []Point
	for _, n := range []int{8, 16, 24} {
		plans := []string{""}
		for k, kinds := range [][2]int{{1, 0}, {0, 2}, {1, 1}} {
			plans = append(plans, fault.Random(propertySeed+uint64(k), n, steps, kinds[0], kinds[1]).String())
		}
		pts, err := Grid{
			Nodes:   []int{n},
			Budgets: []units.Watts{98, 99, 100, 105, 120, 160, 215},
			Faults:  plans,
			Classes: []string{"", "0-1:gpu", fmt.Sprintf("%d-%d:lowpower", n-2, n-1), fmt.Sprintf("0:gpu,%d:lowpower", n/2)},
			Steps:   steps,
			Seed:    propertySeed,
		}.Expand()
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, pts...)
	}
	outs, _ := Batch(context.Background(), points, Options{Jobs: 2})
	infeasible := 0
	for _, o := range outs {
		p := o.Point
		if o.Err != nil {
			var ie *core.InfeasibleBudgetError
			if !errors.As(o.Err, &ie) {
				t.Errorf("%s: %v", p.Key, o.Err)
			}
			infeasible++
			continue
		}
		checkOutcome(t, p, o.Result)
	}
	if infeasible == 0 || infeasible == len(outs) {
		t.Errorf("%d of %d points infeasible; the grid should straddle the class-minimum edge", infeasible, len(outs))
	}
}

// checkOutcome asserts one feasible point's invariants.
func checkOutcome(t *testing.T, p Point, r *Result) {
	t.Helper()
	tt, e := float64(r.TotalTime), float64(r.TotalEnergy)
	if !(tt > 0) || math.IsInf(tt, 0) || !(e > 0) || math.IsInf(e, 0) {
		t.Errorf("%s: time %v, energy %v; want finite and positive", p.Key, r.TotalTime, r.TotalEnergy)
	}
	w := p.Spec.Workload
	n := w.SimNodes + w.AnaNodes
	budget := p.Spec.constraints(n).Budget
	dead := map[int]bool{}
	for _, tr := range r.Cosim.FaultLog {
		if tr.To == core.Dead {
			dead[tr.NodeID] = true
		}
	}
	// The caps are summed exactly: float64 accumulation rounds, and its
	// error alone can exceed the last bits of the budget.
	sum := new(big.Float).SetPrec(2048)
	for i, c := range r.Cosim.FinalCaps {
		if dead[i] {
			continue
		}
		sum.Add(sum, big.NewFloat(float64(c)))
		cl := machine.DefaultClass()
		if name := p.Spec.Classes.ClassAt(i); name != "" {
			cl, _ = machine.PresetClass(name)
		}
		if c < cl.Rapl.MinCap || c > cl.Rapl.TDP {
			t.Errorf("%s: node %d (%s) cap %v outside [%v, %v]", p.Key, i, cl.Name, c, cl.Rapl.MinCap, cl.Rapl.TDP)
		}
	}
	// The allocators split the budget into float64 shares, and rounding
	// each share can leave their exact sum a few ulps above the total:
	// the bound is n*eps*budget (nanowatts at these budgets). Anything
	// larger is a real overshoot.
	limit := new(big.Float).SetPrec(2048).SetFloat64(float64(budget))
	limit.Add(limit, big.NewFloat(float64(n)*0x1p-52*float64(budget)))
	if sum.Cmp(limit) > 0 {
		t.Errorf("%s: live caps sum to %s W, over the %v budget", p.Key, sum.Text('g', 20), budget)
	}
}
