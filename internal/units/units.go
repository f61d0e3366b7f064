// Package units defines the physical quantities used throughout the
// Capybara simulation: voltage, current, capacitance, energy, power,
// resistance, and volume.
//
// Each quantity is a distinct float64 type so that the compiler catches
// dimension mistakes (passing a Power where an Energy is expected). SI
// base units are used internally: volts, amperes, farads, joules, watts,
// ohms, cubic millimetres, and seconds (as float64, see Seconds).
package units

import (
	"fmt"
	"math"
)

// Voltage is an electric potential in volts.
type Voltage float64

// Current is an electric current in amperes.
type Current float64

// Capacitance is a capacitance in farads.
type Capacitance float64

// Energy is an energy in joules.
type Energy float64

// Power is a power in watts.
type Power float64

// Resistance is a resistance in ohms.
type Resistance float64

// Volume is a physical volume in cubic millimetres. Board-level
// provisioning in the paper (Fig. 4) is argued in mm³.
type Volume float64

// Area is a board area in square millimetres (§6.5 characterization).
type Area float64

// Seconds is a span of simulated time. The simulator uses float64
// seconds rather than time.Duration so that analytically computed spans
// (e.g. charge times) lose no precision and can exceed duration range.
type Seconds float64

// Convenience constructors for common magnitudes.
const (
	MicroFarad Capacitance = 1e-6
	MilliFarad Capacitance = 1e-3

	// api: a unit magnitude, kept beside the ones in use.
	MilliVolt Voltage = 1e-3

	// api: a unit magnitude, kept beside the ones in use.
	MicroAmp Current = 1e-6
	// api: a unit magnitude, kept beside the ones in use.
	MilliAmp Current = 1e-3

	// api: a unit magnitude, kept beside the ones in use.
	MicroJoule Energy = 1e-6
	MilliJoule Energy = 1e-3

	MicroWatt Power = 1e-6
	MilliWatt Power = 1e-3

	// api: a unit magnitude, kept beside the ones in use.
	KiloOhm Resistance = 1e3

	Millisecond Seconds = 1e-3
	Minute      Seconds = 60
	Hour        Seconds = 3600
)

// StoredEnergy returns the energy held by capacitance c charged to v:
// E = ½CV².
func StoredEnergy(c Capacitance, v Voltage) Energy {
	return Energy(0.5 * float64(c) * float64(v) * float64(v))
}

// BandEnergy returns the energy extractable from capacitance c when it
// is discharged from vTop down to vBottom: E = ½C(Vtop² − Vbottom²).
// This is the paper's §5.2 storage equation. If vBottom ≥ vTop the band
// holds no energy and zero is returned.
func BandEnergy(c Capacitance, vTop, vBottom Voltage) Energy {
	if vBottom >= vTop {
		return 0
	}
	return StoredEnergy(c, vTop) - StoredEnergy(c, vBottom)
}

// VoltageForEnergy returns the voltage to which capacitance c must be
// charged to store energy e: V = √(2E/C). It returns 0 for non-positive
// capacitance or energy.
func VoltageForEnergy(c Capacitance, e Energy) Voltage {
	if c <= 0 || e <= 0 {
		return 0
	}
	return Voltage(math.Sqrt(2 * float64(e) / float64(c)))
}

// ChargeVoltageAfter returns the voltage on capacitance c after
// charging it from v0 at constant power p for dt seconds:
// V(t) = √(V0² + 2Pt/C). Constant-power charging is what a boost
// converter with maximum-power-point tracking delivers.
func ChargeVoltageAfter(c Capacitance, v0 Voltage, p Power, dt Seconds) Voltage {
	if c <= 0 {
		return v0
	}
	vv := float64(v0)*float64(v0) + 2*float64(p)*float64(dt)/float64(c)
	if vv <= 0 {
		return 0
	}
	return Voltage(math.Sqrt(vv))
}

// TimeToCharge returns the time required to charge capacitance c from
// v0 to v1 at constant power p. It returns 0 when v1 ≤ v0 and +Inf when
// p ≤ 0 (or c ≤ 0) and charging is actually required.
func TimeToCharge(c Capacitance, v0, v1 Voltage, p Power) Seconds {
	if v1 <= v0 {
		return 0
	}
	if p <= 0 || c <= 0 {
		return Seconds(math.Inf(1))
	}
	de := BandEnergy(c, v1, v0)
	return Seconds(float64(de) / float64(p))
}

// DischargeVoltageAfter returns the voltage on capacitance c after a
// load draws constant power p from it for dt seconds, starting at v0.
// The voltage floor is clamped at zero.
func DischargeVoltageAfter(c Capacitance, v0 Voltage, p Power, dt Seconds) Voltage {
	if c <= 0 {
		return 0
	}
	vv := float64(v0)*float64(v0) - 2*float64(p)*float64(dt)/float64(c)
	if vv <= 0 {
		return 0
	}
	return Voltage(math.Sqrt(vv))
}

// TimeToDischarge returns the time for a constant-power load p to drag
// capacitance c from v0 down to v1. It returns 0 when v0 ≤ v1 and +Inf
// for a non-positive load.
func TimeToDischarge(c Capacitance, v0, v1 Voltage, p Power) Seconds {
	if v0 <= v1 {
		return 0
	}
	if p <= 0 || c <= 0 {
		return Seconds(math.Inf(1))
	}
	de := BandEnergy(c, v0, v1)
	return Seconds(float64(de) / float64(p))
}

// LeakVoltageAfter returns the voltage on capacitance c with parallel
// leakage resistance r after dt seconds of self-discharge from v0:
// V(t) = V0·exp(−t/RC). A non-positive r means an ideal capacitor.
func LeakVoltageAfter(c Capacitance, v0 Voltage, r Resistance, dt Seconds) Voltage {
	if r <= 0 || c <= 0 || dt <= 0 {
		return v0
	}
	return Voltage(float64(v0) * math.Exp(-float64(dt)/(float64(r)*float64(c))))
}

// MinAdvance returns the smallest span by which simulated time t can
// advance to a strictly later float64 instant (one ULP of t, floored at
// a femtosecond near zero). Event-driven loops must round horizons up
// to this: a stepped source is free to promise constancy for a sliver
// shorter than one ULP of the current clock (PWM traces do, near their
// edges, because phase arithmetic is exact while absolute time is not),
// and advancing by such a sliver leaves the clock bit-identical — a
// Zeno stall. Rounding up crosses the sliver by at most one ULP of
// physically meaningless time.
func MinAdvance(t Seconds) Seconds {
	d := Seconds(math.Nextafter(float64(t), math.Inf(1))) - t
	if d < 1e-15 {
		d = 1e-15
	}
	return d
}

// TimeToLeakTo returns how long capacitance c with leakage resistance r
// takes to self-discharge from v0 down to v1. It returns 0 when
// v0 ≤ v1, and +Inf for an ideal capacitor (r ≤ 0) or v1 ≤ 0.
func TimeToLeakTo(c Capacitance, v0, v1 Voltage, r Resistance) Seconds {
	if v0 <= v1 {
		return 0
	}
	if r <= 0 || c <= 0 || v1 <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(r) * float64(c) * math.Log(float64(v0)/float64(v1)))
}

// String implementations render quantities with engineering prefixes so
// traces and tables read like the paper ("67.5 mF", "2.4 V", "10 mW").

func (v Voltage) String() string     { return eng(float64(v), "V") }
func (i Current) String() string     { return eng(float64(i), "A") }
func (c Capacitance) String() string { return eng(float64(c), "F") }
func (e Energy) String() string      { return eng(float64(e), "J") }
func (p Power) String() string       { return eng(float64(p), "W") }
func (r Resistance) String() string  { return eng(float64(r), "Ω") }
func (v Volume) String() string      { return fmt.Sprintf("%.1f mm³", float64(v)) }
func (a Area) String() string        { return fmt.Sprintf("%.1f mm²", float64(a)) }

// String renders a time span: sub-second spans in ms, longer spans in
// seconds with decreasing precision.
func (s Seconds) String() string {
	abs := math.Abs(float64(s))
	switch {
	case abs == 0:
		return "0 s"
	case abs < 1e-3:
		return fmt.Sprintf("%.1f µs", float64(s)*1e6)
	case abs < 1:
		return fmt.Sprintf("%.1f ms", float64(s)*1e3)
	case abs < 100:
		return fmt.Sprintf("%.2f s", float64(s))
	default:
		return fmt.Sprintf("%.0f s", float64(s))
	}
}

var engPrefixes = []struct {
	scale  float64
	prefix string
}{
	{1, ""}, {1e-3, "m"}, {1e-6, "µ"}, {1e-9, "n"}, {1e-12, "p"},
}

func eng(x float64, unit string) string {
	if x == 0 {
		return "0 " + unit
	}
	abs := math.Abs(x)
	if abs >= 1 {
		return fmt.Sprintf("%.3g", x) + " " + unit
	}
	for _, p := range engPrefixes[1:] {
		if abs >= p.scale {
			return fmt.Sprintf("%.3g", x/p.scale) + " " + p.prefix + unit
		}
	}
	return fmt.Sprintf("%.3g %s", x, unit)
}
