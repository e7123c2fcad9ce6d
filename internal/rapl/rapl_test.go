package rapl

import (
	"math"
	"testing"
	"testing/quick"

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
	if got := d.SustainedAllowed(200); got != 200 {
		t.Errorf("cap applied before actuation latency: allowed %v", got)
	}
	d.Advance(0.005, 150)
	if got := d.SustainedAllowed(200); got != 200 {
		t.Errorf("cap applied at 5ms, before the 10ms latency: %v", got)
	}
	d.Advance(0.006, 150)
	if got := d.SustainedAllowed(200); got != 110 {
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

func TestWindowEnforcement(t *testing.T) {
	d := theta(t)
	d.SetLongCap(110)
	d.Advance(0.02, 100) // actuate

	// Fresh window: brief excursions above the cap are allowed.
	if got := d.Allowed(180); got <= 110 {
		t.Errorf("transient headroom not granted: allowed %v", got)
	}
	// Saturate the window at high power.
	d.Advance(1.2, 180)
	if avg := d.WindowAverage(); avg < 110 {
		t.Fatalf("window average %v below cap after high draw", avg)
	}
	if got := d.Allowed(180); got != 110 {
		t.Errorf("saturated window should regulate to the cap: allowed %v", got)
	}
	// Draining the window below the cap restores headroom.
	d.Advance(2, 90)
	if got := d.Allowed(180); got <= 110 {
		t.Errorf("headroom not restored after low draw: allowed %v", got)
	}
}

func TestSustainedAllowed(t *testing.T) {
	d := theta(t)
	if got := d.SustainedAllowed(300); got != 215 {
		t.Errorf("uncapped sustained allowed %v, want TDP", got)
	}
	d.SetLongCap(110)
	d.Advance(0.02, 100)
	if got := d.SustainedAllowed(180); got != 110 {
		t.Errorf("sustained allowed %v, want 110", got)
	}
	if got := d.SustainedAllowed(105); got != 105 {
		t.Errorf("demand below cap should pass through: %v", got)
	}
}

func TestDualCapMargin(t *testing.T) {
	d := theta(t)
	d.SetLongCap(110)
	d.SetShortCap(110)
	d.Advance(0.02, 100)
	got := d.SustainedAllowed(180)
	want := units.Watts(110 * (1 - Theta().DualCapMargin))
	if !units.NearlyEqual(float64(got), float64(want), 1e-9) {
		t.Errorf("dual-cap regulation at %v, want %v (slightly below the request)", got, want)
	}
}

func TestShortCapOnly(t *testing.T) {
	d := theta(t)
	d.SetShortCap(120)
	d.Advance(0.02, 100)
	if got := d.SustainedAllowed(180); got != 120 {
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

func TestAllowedNeverExceedsTDP(t *testing.T) {
	f := func(demand float64, capW float64) bool {
		d := MustNewDomain(Theta())
		c := units.Watts(90 + mod(capW, 150))
		d.SetLongCap(c)
		d.Advance(0.02, 100)
		got := d.Allowed(units.Watts(mod(demand, 500)))
		return got >= 0 && got <= 215
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
		got := d.SustainedAllowed(units.Watts(mod(demand, 500)))
		return got <= d.LongCap()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowAverageTracksConstantDraw(t *testing.T) {
	d := theta(t)
	for i := 0; i < 50; i++ {
		d.Advance(0.1, 120)
	}
	if avg := d.WindowAverage(); !units.NearlyEqual(float64(avg), 120, 1e-6) {
		t.Errorf("window average %v, want 120", avg)
	}
}

func mod(x, m float64) float64 {
	v := math.Mod(math.Abs(x), m)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// TestBankMixedWindows pins a bank whose slots differ in whether they
// keep the enforcement window: every slot's window queries, advances and
// resets work whichever slot allocated the windows first.
func TestBankMixedWindows(t *testing.T) {
	sustained := Theta()
	sustained.SustainedOnly = true
	b := NewBank(3)
	var doms []*Domain
	for _, cfg := range []Config{sustained, Theta(), sustained} {
		d, err := b.Add(cfg)
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
	}
	for _, d := range doms {
		d.SetLongCap(120)
		d.Advance(0.5, 150)
		d.Advance(0.5, 100)
	}
	if got := doms[1].WindowAverage(); got != 125 {
		t.Errorf("windowed slot average = %v, want 125", got)
	}
	if got := doms[2].WindowAverage(); got != 0 {
		t.Errorf("sustained-only slot average = %v, want 0 (no window kept)", got)
	}
	if doms[0].LongCap() != 120 || doms[2].LongCap() != 120 {
		t.Errorf("due cap writes not active: %v, %v", doms[0].LongCap(), doms[2].LongCap())
	}
	b.Reset()
	for i, d := range doms {
		if d.Now() != 0 || d.Energy() != 0 || d.LongCap() != 0 || d.WindowAverage() != 0 {
			t.Errorf("slot %d not reset", i)
		}
	}
}
