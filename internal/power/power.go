// Package power models Capybara's power distribution circuit (paper
// §5.1): the input booster with its cold-start phase and bypass-diode
// optimization, and the output booster that regulates the load voltage
// and extracts energy from high-ESR capacitors down to a cutoff.
//
// The package charges and discharges any Store — a single fixed bank or
// the active set of a reconfigurable reservoir.
package power

import (
	"fmt"
	"math"

	"capybara/internal/harvest"
	"capybara/internal/units"
)

// Store is the electrical view of an energy buffer: total capacitance,
// terminal voltage, and effective series resistance. *storage.Bank and
// the reservoir's active set both implement it.
type Store interface {
	Capacitance() units.Capacitance
	Voltage() units.Voltage
	SetVoltage(units.Voltage)
	ESR() units.Resistance
}

// Rated is optionally implemented by stores that know the maximum
// voltage they may be charged to (the lowest rating across their
// members). The charger treats it as a hard ceiling — the booster's
// overvoltage lockout parks a full store at its rating. Without the
// ceiling the charger would command voltages above the rating and rely
// on each member clamping itself, which silently discards energy and,
// for a multi-bank set with mixed ratings, leaves the members at
// different voltages even though they are electrically connected.
type Rated interface {
	RatedVoltage() units.Voltage
}

// ratedCeiling returns the store's rated voltage, or 0 when unknown.
func ratedCeiling(st Store) units.Voltage {
	if r, ok := st.(Rated); ok {
		return r.RatedVoltage()
	}
	return 0
}

// InputBooster models the boost converter between harvester and
// storage. Below ColdStart volts of stored voltage the converter runs
// in its inefficient cold-start phase (paper: cold start "substantially
// slows charging of large capacitors at low input power").
type InputBooster struct {
	// Efficiency is the conversion efficiency once started, in (0, 1].
	Efficiency float64
	// ColdStart is the storage voltage below which the booster has not
	// yet started and must trickle-charge.
	ColdStart units.Voltage
	// ColdStartEfficiency is the conversion efficiency during cold
	// start; an order of magnitude below Efficiency.
	ColdStartEfficiency float64
	// MinSourceVoltage is the minimum harvester voltage the booster
	// can work from at all.
	MinSourceVoltage units.Voltage
}

// BypassDiode models the paper's bypass optimization: while the storage
// voltage is below the cold-start threshold and also below the
// harvester voltage minus the diode drop, capacitors charge directly
// from the harvester, skipping the cold-start penalty.
type BypassDiode struct {
	Enabled bool
	Drop    units.Voltage
}

// OutputBooster models the regulated output stage. It produces Vout for
// the load while drawing the storage down to a cutoff voltage set by
// MinInput and the ESR droop under load.
type OutputBooster struct {
	// Vout is the regulated output voltage (e.g. 2.5 V for the gesture
	// sensor, 2.0 V for the BLE radio).
	Vout units.Voltage
	// Efficiency is the conversion efficiency in (0, 1].
	Efficiency float64
	// MinInput is the minimum boostable storage voltage (1.6 V on the
	// paper's prototype).
	MinInput units.Voltage
	// Quiescent is the power-system overhead drawn from storage while
	// the device operates (it is why sleeping between samples still
	// drains the big capacitor, §6.4).
	Quiescent units.Power
}

// Defaults match the scale of the paper's prototype.
func DefaultInputBooster() InputBooster {
	return InputBooster{
		Efficiency:          0.75,
		ColdStart:           1.6,
		ColdStartEfficiency: 0.02,
		MinSourceVoltage:    0.3,
	}
}

func DefaultBypass() BypassDiode { return BypassDiode{Enabled: true, Drop: 0.3} }

func DefaultOutputBooster() OutputBooster {
	return OutputBooster{
		Vout:       2.5,
		Efficiency: 0.8,
		MinInput:   1.6,
		Quiescent:  150 * units.MicroWatt,
	}
}

// System composes a harvester with the three distribution circuits.
type System struct {
	Source harvest.Source
	In     InputBooster
	Bypass BypassDiode
	Out    OutputBooster

	// cutEsr/cutDraw/cutV memoize recent cutoff solves keyed by the
	// exact (esr, storage draw) pair the root depends on: every drain
	// recomputes the brownout cutoff, and the simulator cycles through a
	// handful of fixed peripheral loads on a fixed active-set ESR.
	// Identical inputs give the identical root, so the memo changes no
	// result bits. The booster parameters it derives from are fixed
	// after construction (Config.Tune runs before any simulation step).
	cutEsr  [4]units.Resistance
	cutDraw [4]units.Power
	cutV    [4]units.Voltage
	cutN    int
}

// NewSystem wires a source to default boosters.
func NewSystem(src harvest.Source) *System {
	return &System{
		Source: src,
		In:     DefaultInputBooster(),
		Bypass: DefaultBypass(),
		Out:    DefaultOutputBooster(),
	}
}

// ChargePower returns the effective power flowing into a store at
// voltage v at time t, accounting for the charge path in effect:
// bypass diode, cold-start trickle, or started booster.
func (s *System) ChargePower(v units.Voltage, t units.Seconds) units.Power {
	raw := s.Source.PowerAt(t)
	if raw <= 0 {
		return 0
	}
	srcV := s.Source.VoltageAt(t)
	if srcV < s.In.MinSourceVoltage {
		return 0
	}
	if v >= s.In.ColdStart {
		return units.Power(float64(raw) * s.In.Efficiency)
	}
	// Below cold start: prefer the bypass path when the harvester
	// voltage can forward-bias the keeper diode.
	if s.Bypass.Enabled && srcV-s.Bypass.Drop > v {
		// Direct diode charging forfeits only the diode drop.
		frac := 1 - float64(s.Bypass.Drop)/float64(srcV)
		if frac < 0 {
			frac = 0
		}
		return units.Power(float64(raw) * frac)
	}
	return units.Power(float64(raw) * s.In.ColdStartEfficiency)
}

// bypassCeiling returns the highest voltage the bypass path can charge
// to at time t: one diode drop below the harvester voltage, and never
// above the cold-start threshold (past which the booster takes over).
func (s *System) bypassCeiling(t units.Seconds) units.Voltage {
	ceil := s.Source.VoltageAt(t) - s.Bypass.Drop
	if ceil > s.In.ColdStart {
		ceil = s.In.ColdStart
	}
	return ceil
}

// maxChargeStep bounds charge integration for opaque sources (no
// harvest.Stepped horizon) so that time-varying output is re-sampled
// often enough. Stepped sources are integrated in whole closed-form
// segments instead.
const maxChargeStep units.Seconds = 0.5

// segmentHorizon returns the span starting at t over which the source
// output is known constant, clamped to remain. Opaque sources fall
// back to the fixed re-sampling step, preserving the pre-event-solver
// behaviour.
func (s *System) segmentHorizon(t, remain units.Seconds) units.Seconds {
	h := harvest.NextChange(s.Source, t)
	if h <= 0 {
		h = maxChargeStep
	}
	if h > remain {
		h = remain
	}
	// Progress guarantee: a source may promise constancy for a sliver
	// shorter than one ULP of t (PWM traces near their edges); stepping
	// by it would leave the clock bit-identical and stall the charge
	// loop. Round up to the smallest representable advance.
	if m := units.MinAdvance(t); h < m {
		h = m
	}
	return h
}

// StepSegment charges the store for at most dt starting at time t,
// under the contract that the source output is constant on [t, t+dt):
// AdvanceCharge and TimeToChargeTo bound their iterations by
// segmentHorizon to establish it, and sim's charge loop passes its own
// source-change horizon through directly. It advances analytically
// through the bypass / cold-start / started phases (the charge power is
// constant within each phase, so each phase is one closed-form solve)
// and stops early when the store reaches target (0 means no target).
// It returns the time actually consumed (dt unless the target was hit)
// and whether the target was reached. The target voltage is snapped
// exactly so callers can compare against it without float-asymptote
// drift.
func (s *System) StepSegment(st Store, target units.Voltage, t, dt units.Seconds) (units.Seconds, bool) {
	rated := ratedCeiling(st)
	elapsed := units.Seconds(0)
	for elapsed < dt {
		v := st.Voltage()
		if target > 0 && v >= target {
			st.SetVoltage(target)
			return elapsed, true
		}
		if rated > 0 && v >= rated {
			// Full store: the overvoltage lockout holds it at the rating,
			// so the rest of the segment is dead air.
			return dt, false
		}
		p := s.ChargePower(v, t)
		if p <= 0 {
			// Dead air: the source is constant for the whole segment, so
			// no charging can happen anywhere in it.
			return dt, false
		}
		remain := dt - elapsed
		// Stop the analytic solve at the next charge-path boundary so
		// the charge power is constant within it; never command a
		// voltage above the store's rating.
		limit := target
		if rated > 0 && (limit <= 0 || rated < limit) {
			limit = rated
		}
		if v < s.In.ColdStart {
			b := s.In.ColdStart
			if s.Bypass.Enabled {
				if c := s.bypassCeiling(t); c > v && c < b {
					b = c
				}
			}
			if limit <= 0 || b < limit {
				limit = b
			}
		}
		if limit > 0 {
			need := units.TimeToCharge(st.Capacitance(), v, limit, p)
			if need <= remain {
				st.SetVoltage(limit)
				elapsed += need
				if target > 0 && limit >= target {
					return elapsed, true
				}
				continue
			}
		}
		st.SetVoltage(units.ChargeVoltageAfter(st.Capacitance(), v, p, remain))
		elapsed = dt
	}
	return dt, false
}

// AdvanceCharge charges the store for dt starting at time t0, advancing
// through the bypass / cold-start / normal phases. It returns the
// voltage reached. Charging stops at ceiling (typically the bank's
// rated voltage or the configured Vtop); pass 0 for no ceiling.
func (s *System) AdvanceCharge(st Store, t0, dt units.Seconds, ceiling units.Voltage) units.Voltage {
	t := t0
	end := t0 + dt
	for t < end {
		if ceiling > 0 && st.Voltage() >= ceiling {
			return st.Voltage()
		}
		h := s.segmentHorizon(t, end-t)
		used, reached := s.StepSegment(st, ceiling, t, h)
		t += used
		if reached {
			return st.Voltage()
		}
	}
	if ceiling > 0 && st.Voltage() > ceiling {
		st.SetVoltage(ceiling)
	}
	return st.Voltage()
}

// TimeToChargeTo returns how long charging from time t0 takes to bring
// the store up to target, bounded by maxWait. If the target is not
// reached within maxWait, it returns maxWait and false. The store's
// voltage is left at the reached value.
//
// The solve is event-driven: each iteration jumps one whole segment —
// min(source-change horizon, path boundary, target hit, maxWait) —
// using the closed-form constant-power solution, so a constant source
// charging a large bank costs O(path boundaries) instead of
// O(charge time / step).
func (s *System) TimeToChargeTo(st Store, target units.Voltage, t0, maxWait units.Seconds) (units.Seconds, bool) {
	if st.Voltage() >= target {
		return 0, true
	}
	elapsed := units.Seconds(0)
	for elapsed < maxWait {
		t := t0 + elapsed
		h := s.segmentHorizon(t, maxWait-elapsed)
		used, reached := s.StepSegment(st, target, t, h)
		elapsed += used
		if reached {
			return elapsed, true
		}
	}
	return maxWait, false
}

// StoreDraw returns the power drawn from storage to run a load of
// loadPower at the regulated output, including converter loss and
// quiescent overhead.
func (s *System) StoreDraw(loadPower units.Power) units.Power {
	eff := s.Out.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return units.Power(float64(loadPower)/eff) + s.Out.Quiescent
}

// CutoffVoltage returns the storage voltage at which the output booster
// browns out for a given load: the voltage where the ESR droop drags
// the effective input below MinInput. Solving
// V − (P/V)·ESR = MinInput gives V = (m + √(m² + 4·P·R)) / 2.
// High ESR or high power raises the cutoff — the Fig. 4 effect that
// strands energy in ultra-compact supercaps.
func (s *System) CutoffVoltage(esr units.Resistance, loadPower units.Power) units.Voltage {
	return s.cutoff(esr, s.StoreDraw(loadPower))
}

// cutoff is CutoffVoltage for a load whose storage-side draw (StoreDraw)
// is already known.
func (s *System) cutoff(esr units.Resistance, draw units.Power) units.Voltage {
	for i := 0; i < s.cutN; i++ {
		if s.cutEsr[i] == esr && s.cutDraw[i] == draw {
			return s.cutV[i]
		}
	}
	m := float64(s.Out.MinInput)
	pr := float64(draw) * float64(esr)
	v := units.Voltage((m + math.Sqrt(m*m+4*pr)) / 2)
	i := s.cutN
	if i == len(s.cutEsr) {
		i = 0 // full: evict the oldest slot
	} else {
		s.cutN++
	}
	s.cutEsr[i], s.cutDraw[i], s.cutV[i] = esr, draw, v
	return v
}

// CanSupply reports whether the store can currently power the load at
// all (its voltage is above the load's cutoff).
func (s *System) CanSupply(st Store, loadPower units.Power) bool {
	return st.Voltage() > s.CutoffVoltage(st.ESR(), loadPower)
}

// Discharge runs a load drawing loadPower for up to dt and returns the
// time sustained. If the store hits the load's cutoff voltage first,
// the sustained time is shorter than dt and ok is false (brownout).
func (s *System) Discharge(st Store, loadPower units.Power, dt units.Seconds) (units.Seconds, bool) {
	v := st.Voltage()
	v1, sustained, ok := s.DischargeStep(st.Capacitance(), st.ESR(), v, s.StoreDraw(loadPower), dt)
	if sustained > 0 || v1 != v {
		st.SetVoltage(v1)
	}
	return sustained, ok
}

// DischargeStep is Discharge on plain values, for callers that hold a
// concrete store and want neither the Store interface calls nor a
// second StoreDraw: a store of capacitance c and series resistance esr
// at voltage v feeds a load whose storage-side draw is draw (StoreDraw
// of the load) for up to dt. It returns the store's voltage after the
// step, the time sustained, and whether all of dt was sustained; on a
// brownout the voltage is the load's cutoff. When nothing can be drawn
// (dt <= 0, or v already at or below the cutoff) it returns v and 0
// sustained, so the caller writes the voltage back exactly when
// sustained > 0 or the voltage moved.
func (s *System) DischargeStep(c units.Capacitance, esr units.Resistance, v units.Voltage, draw units.Power, dt units.Seconds) (units.Voltage, units.Seconds, bool) {
	if dt <= 0 {
		return v, 0, true
	}
	cut := s.cutoff(esr, draw)
	if v <= cut {
		return v, 0, false
	}
	sustain := units.TimeToDischarge(c, v, cut, draw)
	if sustain >= dt {
		return units.DischargeVoltageAfter(c, v, draw, dt), dt, true
	}
	return cut, sustain, false
}

// OperatingTime returns how long the store could sustain loadPower from
// its present voltage without charging.
func (s *System) OperatingTime(st Store, loadPower units.Power) units.Seconds {
	draw := s.StoreDraw(loadPower)
	cut := s.CutoffVoltage(st.ESR(), loadPower)
	return units.TimeToDischarge(st.Capacitance(), st.Voltage(), cut, draw)
}

// ExtractableEnergy returns the energy the output booster can pull from
// the store for a load of loadPower: the band between the present
// voltage and the ESR-dependent cutoff, scaled by converter efficiency.
func (s *System) ExtractableEnergy(st Store, loadPower units.Power) units.Energy {
	cut := s.CutoffVoltage(st.ESR(), loadPower)
	band := units.BandEnergy(st.Capacitance(), st.Voltage(), cut)
	eff := s.Out.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return units.Energy(float64(band) * eff)
}

func (s *System) String() string {
	return fmt.Sprintf("power system (in η=%.2f coldstart %v, bypass %v, out %v η=%.2f min %v)",
		s.In.Efficiency, s.In.ColdStart, s.Bypass.Enabled, s.Out.Vout, s.Out.Efficiency, s.Out.MinInput)
}
