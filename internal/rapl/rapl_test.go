package rapl

import (
	"math"
	"testing"
	"testing/quick"

	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

func theta(t *testing.T) *Domain {
	t.Helper()
	d, err := NewDomain(Theta())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDomainValidation(t *testing.T) {
	bad := []Config{
		{MinCap: 0, TDP: 215, LongWindow: 1},
		{MinCap: 100, TDP: 100, LongWindow: 1},
		{MinCap: 98, TDP: 215, LongWindow: 0},
	}
	for i, cfg := range bad {
		if _, err := NewDomain(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewDomain(Theta()); err != nil {
		t.Errorf("Theta config rejected: %v", err)
	}
}

// grant returns the power Grant allows a workload demanding demand.
func grant(d *Domain, demand units.Watts) units.Watts {
	allowed, _ := d.Grant(demand)
	return allowed
}

// sited attaches a fresh hub to d under name, with events on, and
// returns the hub.
func sited(d *Domain, name string) *telemetry.Hub {
	h := telemetry.New(telemetry.Options{})
	d.SetTelemetry(h, name, true)
	return h
}

// violations returns the hub's BudgetViolation events in order.
func violations(h *telemetry.Hub) []telemetry.BudgetViolation {
	var out []telemetry.BudgetViolation
	for _, ev := range h.Events() {
		if v, ok := ev.(telemetry.BudgetViolation); ok {
			out = append(out, v)
		}
	}
	return out
}

// refWindow is an independent trailing average over the last span
// seconds of a piecewise-constant draw.
type refWindow struct {
	span    float64
	dt, pow []float64
}

func (w *refWindow) add(dt, p float64) float64 {
	w.dt = append(w.dt, dt)
	w.pow = append(w.pow, p)
	var j, t float64
	for k := len(w.dt) - 1; k >= 0 && t < w.span; k-- {
		d := math.Min(w.dt[k], w.span-t)
		j += d * w.pow[k]
		t += d
	}
	return j / t
}

func TestMustNewDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNewDomain with bad config should panic")
		}
	}()
	MustNewDomain(Config{})
}

func TestCapClamping(t *testing.T) {
	d := theta(t)
	d.SetLongCap(50) // below MinCap
	d.Advance(0.02, 100)
	if got := d.LongCap(); got != 98 {
		t.Errorf("cap below MinCap clamped to %v, want 98", got)
	}
	d.SetLongCap(500) // above TDP
	d.Advance(0.02, 100)
	if got := d.LongCap(); got != 215 {
		t.Errorf("cap above TDP clamped to %v, want 215", got)
	}
	d.SetLongCap(0) // uncap
	d.Advance(0.02, 100)
	if got := d.LongCap(); got != 0 {
		t.Errorf("zero cap should remove the limit, got %v", got)
	}
}

func TestActuationLatency(t *testing.T) {
	d := theta(t)
	d.SetLongCap(110)
	// Before the latency elapses, the cap is not in force.
	if got := grant(d, 200); got != 200 {
		t.Errorf("cap applied before actuation latency: allowed %v", got)
	}
	d.Advance(0.005, 150)
	if got := grant(d, 200); got != 200 {
		t.Errorf("cap applied at 5ms, before the 10ms latency: %v", got)
	}
	d.Advance(0.006, 150)
	if got := grant(d, 200); got != 110 {
		t.Errorf("cap not applied after latency: allowed %v, want 110", got)
	}
}

func TestEnergyCounter(t *testing.T) {
	d := theta(t)
	d.Advance(2, 100)
	if got := d.Energy(); got != 200 {
		t.Errorf("energy = %v, want 200 J", got)
	}
	d.Advance(1, 110)
	if got := d.Energy(); got != 310 {
		t.Errorf("energy = %v, want 310 J", got)
	}
}

func TestEnergyMonotonic(t *testing.T) {
	d := theta(t)
	prev := d.Energy()
	for i := 0; i < 100; i++ {
		d.Advance(0.1, units.Watts(90+i%60))
		if e := d.Energy(); e < prev {
			t.Fatalf("energy counter decreased: %v -> %v", prev, e)
		} else {
			prev = e
		}
	}
}

func TestAdvancePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Advance should panic")
		}
	}()
	theta(t).Advance(-1, 100)
}

// TestWindowEnforcement drives a sited domain through two excursions of
// its 1 s window average above the cap: each emits exactly one
// BudgetViolation, whose ObservedW is the window average at that
// instant and whose LimitW is the cap target. Draw stays ungoverned by
// the window — the sustained rule alone decides what is allowed.
func TestWindowEnforcement(t *testing.T) {
	d := theta(t)
	h := sited(d, "sim")
	ref := refWindow{span: float64(Theta().LongWindow)}
	d.SetLongCap(110)
	steps := []struct {
		dt, p float64
	}{
		{0.02, 100}, // actuate the cap; window average 100 W
		{0.5, 180},  // excursion 1 starts
		{0.5, 180},  // still over: no second event
		{2, 90},     // window drains below the cap
		{0.5, 200},  // excursion 2 starts
		{0.3, 100},  // still over
	}
	var want []float64
	over := false
	for _, st := range steps {
		d.Advance(units.Seconds(st.dt), units.Watts(st.p))
		avg := ref.add(st.dt, st.p)
		if now := avg > 110*1.02; now != over {
			if now {
				want = append(want, avg)
			}
			over = now
		}
	}
	if grant(d, 180) != 110 {
		t.Errorf("sited domain grant = %v, want the 110 W cap", grant(d, 180))
	}
	got := violations(h)
	if len(got) != len(want) || len(want) != 2 {
		t.Fatalf("violations = %+v, want %d events at window averages %v", got, 2, want)
	}
	for k, v := range got {
		if !units.NearlyEqual(v.ObservedW, want[k], 1e-9) || v.LimitW != 110 || v.Node != "sim" {
			t.Errorf("violation %d = %+v, want ObservedW %v, LimitW 110, node sim", k, v, want[k])
		}
	}
}

func TestSustainedAllowed(t *testing.T) {
	d := theta(t)
	if got := grant(d, 300); got != 215 {
		t.Errorf("uncapped sustained allowed %v, want TDP", got)
	}
	d.SetLongCap(110)
	d.Advance(0.02, 100)
	if got := grant(d, 180); got != 110 {
		t.Errorf("sustained allowed %v, want 110", got)
	}
	if got := grant(d, 105); got != 105 {
		t.Errorf("demand below cap should pass through: %v", got)
	}
}

func TestDualCapMargin(t *testing.T) {
	d := theta(t)
	d.SetLongCap(110)
	d.SetShortCap(110)
	d.Advance(0.02, 100)
	got := grant(d, 180)
	want := units.Watts(110 * (1 - Theta().DualCapMargin))
	if !units.NearlyEqual(float64(got), float64(want), 1e-9) {
		t.Errorf("dual-cap regulation at %v, want %v (slightly below the request)", got, want)
	}
}

func TestShortCapOnly(t *testing.T) {
	d := theta(t)
	d.SetShortCap(120)
	d.Advance(0.02, 100)
	if got := grant(d, 180); got != 120 {
		t.Errorf("short-cap-only sustained allowed %v, want 120", got)
	}
}

func TestCapWritesCounter(t *testing.T) {
	d := theta(t)
	d.SetLongCap(110)
	d.SetShortCap(110)
	d.SetLongCap(120)
	if got := d.CapWrites(); got != 3 {
		t.Errorf("CapWrites = %d, want 3", got)
	}
}

// TestAllowedNeverExceedsTDP: on a sited domain the allowed draw stays
// within [0, TDP] for any demand and cap, and a workload drawing what
// it is allowed never trips the window's violation report.
func TestAllowedNeverExceedsTDP(t *testing.T) {
	f := func(demand float64, capW float64) bool {
		d := MustNewDomain(Theta())
		h := sited(d, "node")
		d.SetLongCap(units.Watts(90 + mod(capW, 150)))
		d.Advance(0.02, 0) // actuate at zero draw
		for k := 0; k < 30; k++ {
			got := grant(d, units.Watts(mod(demand, 500)))
			if got < 0 || got > 215 {
				return false
			}
			d.Advance(0.1, got)
		}
		return len(violations(h)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSustainedAllowedNeverExceedsCap(t *testing.T) {
	f := func(demand float64, capW float64) bool {
		d := MustNewDomain(Theta())
		c := units.Watts(98 + mod(capW, 117))
		d.SetLongCap(c)
		d.Advance(0.02, 100)
		got := grant(d, units.Watts(mod(demand, 500)))
		return got <= d.LongCap()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWindowAverageTracksConstantDraw: after five seconds of constant
// 120 W draw — many window trims — a cap of 110 W falls due and the one
// violation it triggers reports the window average as 120 W.
func TestWindowAverageTracksConstantDraw(t *testing.T) {
	d := theta(t)
	h := sited(d, "sim")
	for i := 0; i < 50; i++ {
		if i == 40 {
			d.SetLongCap(110)
		}
		d.Advance(0.1, 120)
	}
	got := violations(h)
	if len(got) != 1 || !units.NearlyEqual(got[0].ObservedW, 120, 1e-9) {
		t.Errorf("violations = %+v, want one at a 120 W window average", got)
	}
}

func mod(x, m float64) float64 {
	v := math.Mod(math.Abs(x), m)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// TestBankMixedWindows pins a bank that mixes sited and unsited slots:
// the windows are allocated by the first sited slot, a slot added or
// sited later still gets its own window, unsited slots keep none and
// report nothing, and Reset empties every window.
func TestBankMixedWindows(t *testing.T) {
	b := NewBank(3)
	add := func() *Domain {
		d, err := b.Add(Theta())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	h := telemetry.New(telemetry.Options{})
	plain := add()
	first := add()
	first.SetTelemetry(h, "first", true) // allocates the windows
	late := add()
	late.SetTelemetry(h, "late", true)
	doms := []*Domain{plain, first, late}
	run := func(p units.Watts) {
		for _, d := range doms {
			d.SetLongCap(120)
			d.Advance(0.5, p)
			d.Advance(0.5, 100)
		}
	}
	check := func(want float64) {
		t.Helper()
		got := violations(h)
		if len(got) != 2 || got[0].Node != "first" || got[1].Node != "late" {
			t.Fatalf("violations = %+v, want one each from the sited slots", got)
		}
		for _, v := range got {
			if !units.NearlyEqual(v.ObservedW, want, 1e-9) {
				t.Errorf("%s violation at %v W, want the %v W window average", v.Node, v.ObservedW, want)
			}
		}
	}
	// The excursion starts on the first half-second, when the window
	// holds only that draw.
	run(150)
	check(150)
	if plain.LongCap() != 120 || late.LongCap() != 120 {
		t.Errorf("due cap writes not active: %v, %v", plain.LongCap(), late.LongCap())
	}
	b.Reset()
	for i, d := range doms {
		if d.Now() != 0 || d.Energy() != 0 || d.LongCap() != 0 {
			t.Errorf("slot %d not reset", i)
		}
	}
	// A fresh hub sees the second run alone: a window left over from the
	// first run would report (0.5·100 + 0.5·160) W = 130 W, not 160 W.
	h = telemetry.New(telemetry.Options{})
	first.SetTelemetry(h, "first", true)
	late.SetTelemetry(h, "late", true)
	run(160)
	check(160)
}
