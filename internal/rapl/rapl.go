// Package rapl simulates Intel's Running Average Power Limit interface as
// exposed on the Theta Cray XC40 nodes the paper evaluates on (via the
// msr-safe kernel module). One Domain models the package power domain of
// a single node.
//
// The simulation reproduces the RAPL properties the paper depends on:
//
//   - sustained enforcement of the long-term power cap: a workload draws
//     at most min(demand, TDP, cap) — phases run far longer than the 1 s
//     averaging window, so the window's transient headroom never applies
//     (Clip, Grant);
//   - an optional short-term cap that bounds draw directly and, when
//     combined with the long cap, makes RAPL regulate slightly below the
//     requested limit;
//   - an actuation latency (~10 ms on Theta) between writing a new cap
//     and the cap taking effect;
//   - hardware bounds: caps are clamped to [MinCap, TDP] (98 W and 215 W
//     on Theta's KNL 7230);
//   - monotonically increasing energy counters used for power monitoring.
//
// A domain with a telemetry site attached also keeps the 1 s moving
// average of its draw and reports each excursion of that average above
// the cap target as one BudgetViolation event. The window only reports;
// it never changes what a workload may draw.
//
// Time is virtual: callers advance the domain explicitly with the power
// actually drawn, exactly as the machine model integrates phase execution.
//
// A job's domains live in one Bank of flat per-slot records; a Domain
// is a view onto one slot (NewDomain builds a one-slot bank).
package rapl

import (
	"errors"
	"fmt"
	"math"

	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// Config describes the hardware characteristics of a RAPL domain.
type Config struct {
	// MinCap is the lowest supported power cap (98 W on Theta).
	MinCap units.Watts
	// TDP is the thermal design power and highest cap (215 W on Theta).
	TDP units.Watts
	// LongWindow is the averaging window of the long-term cap (1 s),
	// over which a telemetry-attached domain reports violations.
	LongWindow units.Seconds
	// ActuationLatency is the delay between a cap write and the cap
	// taking effect (~10 ms on Theta).
	ActuationLatency units.Seconds
	// DualCapMargin is the fraction below the requested limit at which
	// RAPL regulates when both long- and short-term caps are set; the
	// paper observes that "RAPL limits the power slightly below the
	// requested power" in that configuration.
	DualCapMargin float64
}

// Theta returns the RAPL configuration of a Theta KNL 7230 node.
func Theta() Config {
	return Config{
		MinCap:           98,
		TDP:              215,
		LongWindow:       1.0,
		ActuationLatency: 0.010,
		DualCapMargin:    0.02,
	}
}

// Scale returns the configuration with its power bounds multiplied by
// f, describing a RAPL sub-domain covering a fraction of a physical
// node (a time-shared placement splits one node into two half-node
// domains, f = 0.5). The averaging windows, actuation latency and
// dual-cap margin are properties of the controller, not of the domain
// size, and stay unchanged.
func (c Config) Scale(f float64) Config {
	if f == 1 {
		return c
	}
	c.MinCap = units.Watts(float64(c.MinCap) * f)
	c.TDP = units.Watts(float64(c.TDP) * f)
	return c
}

// ErrCapOutOfRange is returned when a cap request lies outside the
// hardware-supported range and clamping is disabled.
var ErrCapOutOfRange = errors.New("rapl: requested cap outside supported range")

// pendingCap is a cap write waiting out the actuation latency.
type pendingCap struct {
	value    units.Watts
	applyAt  units.Seconds
	shortCap bool
}

// Bank is the flat state of a population of RAPL domains: one per-job
// slice of compact per-slot records holds everything the execution
// path touches (clock, energy, effective caps, the earliest pending
// write), so a driver sweeping the domains in slot order streams
// through one contiguous array instead of chasing one heap object per
// domain; the rarely touched state (pending writes, windows, telemetry)
// sits in side slices. A Domain is a view onto one slot; every rule
// (pending-write activation, clamping, the violation window) is
// implemented once, on the slot, and the views only forward to it.
type Bank struct {
	// cfgs holds the distinct configurations in the bank: a population
	// shares a handful of device classes.
	cfgs  []Config
	slots []slot

	pending   [][]pendingCap
	capWrites []int

	// win holds the slots' moving-average windows, one per slot; nil
	// until some slot keeps one (see slot.sited).
	win []window

	// Telemetry hooks (nil-safe, attached via Domain.SetTelemetry). A
	// site holds the slot's pre-resolved metric children so the
	// per-write hot path never pays a family label lookup.
	site      []*telemetry.CapSite
	telName   []string
	throttled []bool
	violating []bool

	doms []Domain
}

// slot is one domain's hot state: one cache line.
type slot struct {
	now    units.Seconds
	energy units.Joules
	long   units.Watts // 0 means uncapped
	short  units.Watts // 0 means unset
	// target is the level the sustained rule regulates to under the
	// effective caps (see regTarget). due is the clock value from which
	// an advance must take the checked path: the activation time of the
	// earliest pending write (+Inf when none), or -Inf on a sited
	// slot, whose every advance folds the window. Pending writes are
	// activated as soon as they fall due, so the effective caps are
	// always current and reads never consult the queue.
	target units.Watts
	due    units.Seconds
	tdp    units.Watts
	cfg    int32
	// sited marks a slot with a telemetry site. Only such a slot keeps
	// the moving-average window, which violation reporting reads.
	sited bool
}

// window is one sited slot's moving average of its draw over the
// long-term window.
type window struct {
	samples []sample
	j       units.Joules
	len     units.Seconds
}

type sample struct {
	dt units.Seconds
	p  units.Watts
}

// Domain simulates one RAPL package power domain. It is a view onto
// one slot of a Bank: domains built by NewDomain own a one-slot bank.
type Domain struct {
	b *Bank
	s *slot // &b.slots[i]: a bank never grows past its capacity
	i int
}

// NewBank returns an empty bank with room for n domains; a bank holds
// at most n.
func NewBank(n int) *Bank {
	return &Bank{
		slots:     make([]slot, 0, n),
		pending:   make([][]pendingCap, 0, n),
		capWrites: make([]int, 0, n),
		site:      make([]*telemetry.CapSite, 0, n),
		telName:   make([]string, 0, n),
		throttled: make([]bool, 0, n),
		violating: make([]bool, 0, n),
		doms:      make([]Domain, 0, n),
	}
}

// Add appends a fresh domain (virtual time 0, no caps set) to the bank
// and returns its view.
func (b *Bank) Add(cfg Config) (*Domain, error) {
	if cfg.MinCap <= 0 || cfg.TDP <= cfg.MinCap {
		return nil, fmt.Errorf("rapl: invalid cap range [%v, %v]", cfg.MinCap, cfg.TDP)
	}
	if cfg.LongWindow <= 0 {
		return nil, fmt.Errorf("rapl: long window must be positive, got %v", cfg.LongWindow)
	}
	ci := -1
	for k := range b.cfgs {
		if b.cfgs[k] == cfg {
			ci = k
			break
		}
	}
	if ci < 0 {
		ci = len(b.cfgs)
		b.cfgs = append(b.cfgs, cfg)
	}
	i := len(b.doms)
	if i == cap(b.slots) {
		return nil, fmt.Errorf("rapl: bank full at %d domains", i)
	}
	b.slots = append(b.slots, slot{tdp: cfg.TDP, cfg: int32(ci)})
	b.pending = append(b.pending, nil)
	b.capWrites = append(b.capWrites, 0)
	b.site = append(b.site, nil)
	b.telName = append(b.telName, "")
	b.throttled = append(b.throttled, false)
	b.violating = append(b.violating, false)
	b.doms = append(b.doms, Domain{b: b, s: &b.slots[i], i: i})
	if b.win != nil {
		b.win = append(b.win, window{})
	}
	b.setDue(i)
	return &b.doms[i], nil
}

// Domain returns slot i's view.
func (b *Bank) Domain(i int) *Domain { return &b.doms[i] }

// Reset returns every domain to its just-constructed state; see
// Domain.Reset.
func (b *Bank) Reset() {
	for i := range b.doms {
		b.reset(i)
	}
}

// setDue re-derives slot i's due time from its pending writes.
func (b *Bank) setDue(i int) {
	s := &b.slots[i]
	if s.sited {
		s.due = units.Seconds(math.Inf(-1))
		return
	}
	s.due = noneDue
	for _, p := range b.pending[i] {
		s.due = min(s.due, p.applyAt)
	}
}

// NewDomain returns a fresh domain at virtual time 0 with no caps set.
func NewDomain(cfg Config) (*Domain, error) {
	return NewBank(1).Add(cfg)
}

// MustNewDomain is NewDomain that panics on configuration errors; used
// when the configuration is a compile-time constant such as Theta().
func MustNewDomain(cfg Config) *Domain {
	d, err := NewDomain(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// cfg returns slot i's configuration.
func (b *Bank) cfg(i int) *Config { return &b.cfgs[b.slots[i].cfg] }

// Config returns the domain's hardware configuration.
func (d *Domain) Config() Config { return *d.b.cfg(d.i) }

// TDP returns the domain's thermal design power without copying the
// whole configuration — the execution model reads it per phase.
func (d *Domain) TDP() units.Watts { return d.s.tdp }

// SetTelemetry attaches a telemetry hub: cap writes, throttle
// engagements and moving-average window violations are reported under
// the given label. Metrics cover every attached domain; structured
// events are emitted only when eventful is true, so a driver can
// restrict the event stream to one representative node per partition.
// A nil hub detaches.
func (d *Domain) SetTelemetry(h *telemetry.Hub, name string, eventful bool) {
	b, i := d.b, d.i
	b.site[i] = h.CapSiteFor(name, eventful)
	b.telName[i] = name
	b.slots[i].sited = b.site[i] != nil
	if b.slots[i].sited && b.win == nil {
		b.win = make([]window, len(b.doms))
	}
	b.setDue(i)
}

// Now returns the domain's current virtual time.
func (d *Domain) Now() units.Seconds { return d.s.now }

// Energy returns the cumulative energy counter, analogous to the
// MSR_PKG_ENERGY_STATUS register.
func (d *Domain) Energy() units.Joules { return d.s.energy }

// CapWrites returns how many cap write operations were issued; the
// experiment harness uses it to account for actuation overhead.
func (d *Domain) CapWrites() int { return d.b.capWrites[d.i] }

// SetLongCap requests a new long-term power cap. The request is clamped
// to the supported range and takes effect after the actuation latency.
// A zero cap removes the limit.
func (d *Domain) SetLongCap(w units.Watts) { d.b.setCap(d.i, w, false) }

// SetShortCap requests a new short-term power cap with the same clamping
// and latency semantics as SetLongCap. A zero cap removes the limit.
func (d *Domain) SetShortCap(w units.Watts) { d.b.setCap(d.i, w, true) }

// setCap queues a clamped cap write on slot i.
func (b *Bank) setCap(i int, w units.Watts, short bool) {
	b.capWrites[i]++
	s := &b.slots[i]
	c := &b.cfgs[s.cfg]
	if w != 0 {
		w = units.ClampWatts(w, c.MinCap, c.TDP)
	}
	at := s.now + c.ActuationLatency
	b.pending[i] = append(b.pending[i], pendingCap{value: w, applyAt: at, shortCap: short})
	if at <= s.now {
		b.applyPending(i)
	} else if !s.sited {
		s.due = min(s.due, at)
	}
	if s.sited {
		b.site[i].CapWritten(float64(s.now), b.telName[i], float64(w), short)
	}
}

// LongCap returns the currently effective long-term cap (0 if uncapped).
func (d *Domain) LongCap() units.Watts { return d.s.long }

// ShortCap returns the currently effective short-term cap (0 if unset).
func (d *Domain) ShortCap() units.Watts { return d.s.short }

// applyPending activates slot i's cap writes whose latency has elapsed
// (in write order, so the last due write of each cap type wins).
func (b *Bank) applyPending(i int) {
	pend := b.pending[i]
	if len(pend) == 0 {
		return
	}
	s := &b.slots[i]
	remaining := pend[:0]
	due := noneDue
	for _, p := range pend {
		if p.applyAt <= s.now {
			if p.shortCap {
				s.short = p.value
			} else {
				s.long = p.value
			}
		} else {
			remaining = append(remaining, p)
			due = min(due, p.applyAt)
		}
	}
	b.pending[i] = remaining
	s.target = regTarget(s.long, s.short, b.cfgs[s.cfg].DualCapMargin)
	if !s.sited {
		s.due = due
	}
}

// noneDue is the due time of a slot with no pending write.
var noneDue = units.Seconds(math.Inf(1))

// regTarget is the power level RAPL regulates to under a long cap lc
// and a short cap sc: the long cap, lowered by the dual-cap margin when
// a short cap is also set (0 when uncapped).
func regTarget(lc, sc units.Watts, margin float64) units.Watts {
	if lc <= 0 {
		return 0
	}
	if sc > 0 {
		return units.Watts(float64(lc) * (1 - margin))
	}
	return lc
}

// noteThrottle reports engage transitions of demand clipping to the
// telemetry hub (disengagement resets the state silently).
func (b *Bank) noteThrottle(i int, demand, allowed units.Watts) {
	s := b.site[i]
	if s == nil {
		return
	}
	if allowed < demand {
		if !b.throttled[i] {
			b.throttled[i] = true
			s.ThrottleEngaged(float64(b.slots[i].now), b.telName[i], float64(demand), float64(allowed))
		}
	} else {
		b.throttled[i] = false
	}
}

// Grant is the sustained enforcement rule as a workload meets it: Clip,
// with throttle engagements reported to an attached telemetry hub.
func (d *Domain) Grant(demand units.Watts) (allowed units.Watts, dual bool) {
	allowed, dual = d.Clip(demand)
	if d.s.sited {
		d.b.noteThrottle(d.i, demand, allowed)
	}
	return allowed, dual
}

// Clip is the sustained enforcement rule: demand clipped to TDP, to the
// regulation target of the long cap (dual-cap regulation when a short
// cap is also set) and to the short cap. It reports nothing to
// telemetry — Grant is Clip plus the throttle report — so an
// uninstrumented execution path can use it inline (see Instrumented).
func (d *Domain) Clip(demand units.Watts) (allowed units.Watts, dual bool) {
	s := d.s
	allowed = demand
	if allowed > s.tdp {
		allowed = s.tdp
	}
	if s.long > 0 {
		dual = s.short > 0
		if allowed > s.target {
			allowed = s.target
		}
	}
	if s.short > 0 && allowed > s.short {
		allowed = s.short
	}
	if allowed < 0 {
		allowed = 0
	}
	return allowed, dual
}

// Instrumented reports whether a telemetry hub is attached, i.e.
// whether Grant reports anything beyond Clip.
func (d *Domain) Instrumented() bool { return d.s.sited }

// Advance moves virtual time forward by dt with the domain drawing p
// Watts throughout, updating the energy counter (and the window of a
// sited domain), and activating the cap writes that fall due. dt must be
// non-negative.
func (d *Domain) Advance(dt units.Seconds, p units.Watts) {
	if !d.TryAdvance(dt, p) {
		d.b.advance(d.i, dt, p)
	}
}

// TryAdvance is Advance's common case, small enough to inline into an
// execution loop: a positive step that activates no pending write on an
// unsited domain only moves the clock and integrates the
// energy. It reports false, changing nothing, when the step needs
// Advance's checked path instead.
func (d *Domain) TryAdvance(dt units.Seconds, p units.Watts) bool {
	s := d.s
	now := s.now + dt
	if dt <= 0 || now >= s.due {
		return false
	}
	s.now = now
	s.energy += units.Energy(p, dt)
	return true
}

// advance is Advance's checked path on slot i: a negative or zero
// step, pending writes falling due, and the window fold of a sited
// slot.
func (b *Bank) advance(i int, dt units.Seconds, p units.Watts) {
	if dt < 0 {
		panic("rapl: negative time advance")
	}
	if dt == 0 {
		return
	}
	s := &b.slots[i]
	s.now += dt
	s.energy += units.Energy(p, dt)
	if len(b.pending[i]) > 0 {
		b.applyPending(i)
	}
	if s.sited {
		b.advanceWindow(i, dt, p)
	}
}

// advanceWindow folds an advance of slot i into its moving-average
// window and reports window violations.
func (b *Bank) advanceWindow(i int, dt units.Seconds, p units.Watts) {
	e := units.Energy(p, dt)
	long := b.cfg(i).LongWindow

	// Fold the sample into the moving-average window and trim it back
	// to LongWindow seconds. Consumed head samples are compacted with a
	// single copy instead of resliced away: reslicing moves the slice
	// start forward so the next append eventually reallocates, and that
	// churn was the dominant allocation of whole co-simulated episodes.
	w := &b.win[i]
	w.samples = append(w.samples, sample{dt: dt, p: p})
	w.j += e
	w.len += dt
	drop := 0
	for w.len > long && drop < len(w.samples) {
		head := w.samples[drop]
		excess := w.len - long
		if head.dt <= excess {
			drop++
			w.len -= head.dt
			w.j -= units.Energy(head.p, head.dt)
		} else {
			w.samples[drop].dt -= excess
			w.len -= excess
			w.j -= units.Energy(head.p, excess)
		}
	}
	if drop > 0 {
		n := copy(w.samples, w.samples[drop:])
		w.samples = w.samples[:n]
	}

	// Violation telemetry: the window average rising above the
	// effective cap target (beyond a small tolerance) is reported once
	// per excursion.
	if target := b.slots[i].target; target > 0 {
		const tolerance = 1.02
		if avg := units.AvgPower(w.j, w.len); float64(avg) > float64(target)*tolerance {
			if !b.violating[i] {
				b.violating[i] = true
				b.site[i].BudgetViolation(float64(b.slots[i].now), b.telName[i], float64(avg), float64(target))
			}
		} else {
			b.violating[i] = false
		}
	}
}

// Reset returns the domain to its just-constructed state — virtual time
// zero, zero energy, no caps, empty window — while keeping
// the configuration, the telemetry attachment and the backing arrays,
// so pooled episodes reuse one Domain without reallocating its window
// or pending-write storage. A reset domain is indistinguishable from
// NewDomain's result in every observable.
func (d *Domain) Reset() { d.b.reset(d.i) }

// reset is Reset on slot i.
func (b *Bank) reset(i int) {
	s := &b.slots[i]
	s.now, s.energy = 0, 0
	s.long, s.short = 0, 0
	s.target = 0
	b.pending[i] = b.pending[i][:0]
	b.setDue(i)
	if b.win != nil {
		w := &b.win[i]
		w.samples = w.samples[:0]
		w.j, w.len = 0, 0
	}
	b.capWrites[i] = 0
	b.throttled[i], b.violating[i] = false, false
}
