// Energy-register emulation: the real MSR_PKG_ENERGY_STATUS register is
// a 32-bit counter in units of 2^-ESU Joules that wraps every few
// minutes at high power — a detail every RAPL-reading tool (including
// PoLiMER) must handle. The simulated domain exposes the same wrapped
// view, and EnergyUnwrapper reconstructs the monotonic count the way
// msr-safe consumers do.
package rapl

import (
	"math"

	"seesaw/internal/units"
)

// EnergyUnit is the energy status unit: the real KNL reports energy in
// multiples of 1/2^14 J ~ 61 uJ.
const EnergyUnit = 1.0 / (1 << 14) // Joules per register count

// registerMask is the 32-bit wrap boundary of the energy MSR.
const registerMask = (1 << 32) - 1

// EnergyRegister returns the domain's cumulative energy as the hardware
// register would report it: a 32-bit count of EnergyUnit increments,
// wrapping on overflow. At 110 W the register wraps roughly every
// (2^32 * 61 uJ) / 110 W ~ 40 minutes.
func (d *Domain) EnergyRegister() uint32 {
	counts := uint64(math.Floor(float64(d.Energy()) / EnergyUnit))
	return uint32(counts & registerMask)
}

// EnergyUnwrapper reconstructs a monotonically increasing energy value
// from successive wrapped register reads. Reads must come often enough
// that at most one wrap occurs between them (minutes apart at Theta
// power levels; PoLiMER samples far faster).
type EnergyUnwrapper struct {
	last  uint32
	total uint64
	init  bool
}

// Update folds a register read into the running total and returns the
// cumulative energy in Joules.
func (u *EnergyUnwrapper) Update(reg uint32) units.Joules {
	if !u.init {
		u.last = reg
		u.init = true
		return units.Joules(float64(u.total) * EnergyUnit)
	}
	delta := uint64(reg-u.last) & registerMask // wraps handled by uint32 arithmetic
	u.total += delta
	u.last = reg
	return units.Joules(float64(u.total) * EnergyUnit)
}

// Total returns the cumulative unwrapped energy in Joules.
func (u *EnergyUnwrapper) Total() units.Joules {
	return units.Joules(float64(u.total) * EnergyUnit)
}
