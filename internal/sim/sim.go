// Package sim provides the discrete-event device simulator that ties a
// harvester-fed power system, a reconfigurable reservoir, and an MCU
// into one intermittently-powered device with a simulated clock.
//
// The intermittent execution model follows the paper (§2): the
// processor is completely off while charging, turns on once the buffer
// reaches the configured top voltage, and executes until the buffer is
// empty (brownout). Charging while operating is negligible and not
// modeled. A Device with Continuous set models the continuously-powered
// reference board used as the evaluation baseline.
package sim

import (
	"fmt"

	"capybara/internal/device"
	"capybara/internal/harvest"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/units"
)

// Phase labels what the device is doing, for traces.
type Phase int

const (
	// PhaseOff: no useful input power and no execution.
	// api: the zero Phase; deleting it would renumber the others.
	PhaseOff Phase = iota
	// PhaseCharging: accumulating energy, processor off.
	PhaseCharging
	// PhaseRunning: executing on buffered energy.
	PhaseRunning
)

func (p Phase) String() string {
	switch p {
	case PhaseCharging:
		return "charging"
	case PhaseRunning:
		return "running"
	default:
		return "off"
	}
}

// Sample is one point of a voltage trace (Fig. 2-style).
type Sample struct {
	T     units.Seconds
	V     units.Voltage
	Phase Phase
}

// Trace records the storage voltage over time with bounded density.
type Trace struct {
	// MinInterval is the minimum spacing between recorded samples;
	// zero records every transition.
	MinInterval units.Seconds
	// Max bounds the number of retained samples; zero means unbounded.
	// A full trace thins itself: every other sample is dropped and
	// MinInterval doubles, so arbitrarily long runs keep a
	// shape-preserving trajectory in fixed memory.
	Max     int
	Samples []Sample
}

// traceInitialCap sizes the first allocation: one growth step instead
// of the ~10 progressive doublings a long run otherwise pays.
const traceInitialCap = 1024

// record appends one sample; callers check for a nil trace first, so
// an untraced device evaluates no sample arguments.
func (tr *Trace) record(t units.Seconds, v units.Voltage, phase Phase) {
	if n := len(tr.Samples); n > 0 {
		last := tr.Samples[n-1]
		if t-last.T < tr.MinInterval && last.Phase == phase {
			return
		}
	} else if tr.Samples == nil {
		capacity := traceInitialCap
		if tr.Max > 0 {
			capacity = tr.Max
		}
		tr.Samples = make([]Sample, 0, capacity)
	}
	if tr.Max > 0 && len(tr.Samples) >= tr.Max {
		tr.thin()
	}
	tr.Samples = append(tr.Samples, Sample{T: t, V: v, Phase: phase})
}

// thin halves the retained samples in place (keeping every other one)
// and doubles the density floor so the trace converges instead of
// thrashing at the bound.
func (tr *Trace) thin() {
	n := len(tr.Samples)
	for i := 1; 2*i < n; i++ {
		tr.Samples[i] = tr.Samples[2*i]
	}
	tr.Samples = tr.Samples[:(n+1)/2]
	if tr.MinInterval > 0 {
		tr.MinInterval *= 2
	} else if m := len(tr.Samples); m > 1 {
		tr.MinInterval = (tr.Samples[m-1].T - tr.Samples[0].T) / units.Seconds(m-1)
	}
}

// Stats aggregates device-lifetime counters.
type Stats struct {
	Boots        int
	Brownouts    int
	TimeOn       units.Seconds
	TimeCharging units.Seconds
	TimeOff      units.Seconds
	// EnergyDrawn is the energy pulled out of storage by loads;
	// EnergyIntoStore is the energy charging put into storage. Together
	// with leakage and charge-share losses they close the device's
	// energy balance (see TestEnergyBalanceInvariant).
	EnergyDrawn     units.Energy
	EnergyIntoStore units.Energy
}

// Device is one simulated energy-harvesting node.
type Device struct {
	Sys   *power.System
	Array *reservoir.Array
	MCU   device.MCU
	NV    *device.NVStore
	// Continuous marks the continuously-powered reference baseline:
	// charging is instantaneous and discharging never browns out.
	Continuous bool
	// Trace, when non-nil, records the voltage trajectory.
	Trace *Trace
	// Log, when non-nil, records a timeline of boots, brownouts,
	// reconfigurations, reverts, and charge completions.
	Log *EventLog
	// Obs, when non-nil, receives fine-grained simulator callbacks
	// (see Observer); used by the chaos harness.
	Obs Observer

	Stats Stats
	now   units.Seconds

	// pAtT/pAt/pUntil memoize the last harvester sample and the window
	// over which the source guarantees it constant: one simulator step
	// asks for the source output at the same instant several times
	// (powered-ness, tick split, charge segment), successive steps walk
	// forward inside one constancy segment (a steady source is one
	// segment forever; PWM/blackout traces are piecewise constant), and
	// PowerAt is pure in t, so the evaluations collapse to one trace
	// walk per segment.
	pAtT   units.Seconds
	pUntil units.Seconds
	pAt    units.Power
	pAtOK  bool
}

// State is a value copy of a Device's own mutable state: the clock and
// the lifetime counters. The array and the NV store save their own
// state; the power system holds none beyond a memo of pure solves.
type State struct {
	Now   units.Seconds
	Stats Stats
}

// Save returns a copy of the device's own mutable state.
func (d *Device) Save() State { return State{Now: d.now, Stats: d.Stats} }

// Restore sets the device's clock and counters from st. It drops the
// harvester-sample memo, whose window is anchored at the clock it was
// filled at.
func (d *Device) Restore(st *State) {
	d.now, d.Stats = st.Now, st.Stats
	d.pAtOK = false
}

// powerAt returns Sys.Source.PowerAt(t) through the constancy-window
// memo. With an observer attached the memo is skipped: observer hooks
// may mutate the source mid-run (chaos injects outage windows at
// observed instants), which voids any constancy horizon captured
// before the hook fired.
func (d *Device) powerAt(t units.Seconds) units.Power {
	if d.Obs != nil {
		return d.Sys.Source.PowerAt(t)
	}
	if d.pAtOK && (d.pAtT == t || (t > d.pAtT && t < d.pUntil)) {
		return d.pAt
	}
	p := d.Sys.Source.PowerAt(t)
	d.pAtT, d.pAt, d.pAtOK = t, p, true
	d.pUntil = t + harvest.NextChange(d.Sys.Source, t)
	return p
}

// NewDevice assembles a device with a fresh non-volatile store.
func NewDevice(sys *power.System, arr *reservoir.Array, mcu device.MCU) *Device {
	return &Device{Sys: sys, Array: arr, MCU: mcu, NV: device.NewNVStore()}
}

// Now returns the simulated time.
func (d *Device) Now() units.Seconds { return d.now }

// Store returns the electrical view of the currently connected banks.
func (d *Device) Store() *reservoir.ActiveSet { return d.Array.ActiveSet() }

// Configure reprograms the reservoir switches; callable only while the
// device is running (the GPIO interface needs the MCU up). The GPIO
// pulse costs a small quantum of active time.
func (d *Device) Configure(mask uint64) error {
	if err := d.Array.Configure(mask); err != nil {
		return err
	}
	d.Log.add(Event{T: d.now, Kind: EventReconfig, Mask: d.Array.ActiveMask()})
	if !d.Continuous {
		if d.Obs != nil {
			v := d.Store().Voltage()
			d.observe(HookReconfig, d.now, d.now, v, v, true)
		}
		// Programming the latch through the GPIO interface: ~1 ms active.
		d.Drain(d.MCU.ActivePower, 1*units.Millisecond)
	}
	return nil
}

// tickSpan advances the array's passive state for the span of length
// dt that started at t0, deciding powered-ness from the span start:
// event-driven segments are aligned to source changes, so the output
// at t0 is the output for the whole span (sampling at the segment end
// would misread the instant the *next* segment begins).
//
// Unpowered spans are split at latch expiries so each revert (and the
// charge sharing it triggers) lands at its expiry instant rather than
// at the span end. Event-driven callers already bound their segments
// by NextRevert, but paths that tick a whole load drain in one span
// (Drain) would otherwise leak the post-revert configuration for the
// wrong duration. Exponential latch and bank decay compose exactly
// across the split, so only the revert timing changes.
func (d *Device) tickSpan(t0, dt units.Seconds) {
	if d.powerAt(t0) > 0 {
		d.Array.TickPowered(dt)
		return
	}
	for {
		step := dt
		if nr := d.Array.NextRevert(); nr < step {
			step = nr
		}
		before := d.Array.Reverts
		d.Array.TickUnpowered(step)
		t0 += step
		dt -= step
		reverted := d.Array.Reverts > before
		if reverted {
			d.Log.add(Event{T: t0, Kind: EventRevert, Mask: d.Array.ActiveMask()})
		}
		if dt <= 0 {
			return
		}
		if step == 0 && !reverted {
			// Defensive: an expiry that cannot fire must not stall the
			// split loop; take the rest of the span in one tick.
			d.Array.TickUnpowered(dt)
			return
		}
	}
}

// Drain runs a load drawing loadPower at the regulated output for up to
// dt of active time. It returns the time sustained and whether the full
// duration completed; on false the device browned out (task restart
// required). Time advances by the sustained span.
func (d *Device) Drain(loadPower units.Power, dt units.Seconds) (units.Seconds, bool) {
	if dt < 0 {
		dt = 0
	}
	if d.Continuous {
		d.now += dt
		d.Stats.TimeOn += dt
		d.Stats.EnergyDrawn += units.Energy(float64(loadPower) * float64(dt))
		return dt, true
	}
	// Every task operation ends here, so the step works on the concrete
	// active set and plain values (power.DischargeStep, the physics
	// behind power.System.Discharge) and computes the storage draw once
	// for both the discharge and the energy account.
	set := d.Store()
	start, v0 := d.now, set.Voltage()
	if d.Trace != nil {
		d.Trace.record(start, v0, PhaseRunning)
	}
	draw := d.Sys.StoreDraw(loadPower)
	v1, sustained, ok := d.Sys.DischargeStep(set.Capacitance(), set.ESR(), v0, draw, dt)
	if sustained > 0 || v1 != v0 {
		set.SetVoltage(v1)
	}
	d.now += sustained
	d.Stats.TimeOn += sustained
	d.Stats.EnergyDrawn += units.Energy(float64(draw) * float64(sustained))
	d.tickSpan(start, sustained)
	if d.Trace != nil {
		d.Trace.record(d.now, set.Voltage(), PhaseRunning)
	}
	if !ok {
		d.Stats.Brownouts++
		d.Log.add(Event{T: d.now, Kind: EventBrownout})
	}
	if d.Obs != nil {
		d.observe(HookDrain, start, d.now, v0, set.Voltage(), ok)
	}
	return sustained, ok
}

// chargeStep bounds how long the charge loop advances between
// re-evaluations of an *opaque* source (one with no harvest.Stepped
// horizon) and, for traced runs, how sparse the recorded voltage
// trajectory may get. Stepped sources advance in whole analytic
// segments instead.
const chargeStep units.Seconds = 1.0

// chargeHorizon returns the next event-driven segment length starting
// at d.now, at most remain: the span over which the source output is
// constant (opaque sources fall back to the legacy fixed step),
// additionally split at the next latch expiry during true outages (so
// reverts land at the right instant) and, when a voltage trace is
// being recorded, capped so the trajectory stays plottable.
//
// whole reports that the source promised a positive constancy horizon:
// the returned step is then one exact analytic segment, either because
// step never exceeded the promise or because the MinAdvance floor
// dominated it — in which case power.segmentHorizon would floor to the
// identical value. Either way TimeToChargeTo's inner stepping collapses
// to a single StepSegment call with bit-identical arguments, so the
// caller may invoke StepSegment directly and skip the re-derivation of
// the same horizon.
func (d *Device) chargeHorizon(remain units.Seconds) (step units.Seconds, whole bool) {
	step = remain
	whole = true
	if h := harvest.NextChange(d.Sys.Source, d.now); h <= 0 {
		step = min(step, chargeStep)
		whole = false
	} else if h < step {
		step = h
	}
	if d.powerAt(d.now) <= 0 {
		// A true outage: latch capacitors are decaying, and the first
		// expiry reconfigures the array mid-charge (§5.2).
		if nr := d.Array.NextRevert(); nr < step {
			step = nr
		}
	}
	if d.Trace != nil {
		density := chargeStep
		if d.Trace.MinInterval > density {
			density = d.Trace.MinInterval
		}
		if density < step {
			step = density
		}
	}
	// A horizon shorter than one ULP of the clock cannot advance time
	// (sub-ULP constancy slivers near PWM edges); round up so the loop
	// always makes progress.
	if m := units.MinAdvance(d.now); step < m {
		step = m
	}
	return step, whole
}

// ChargeTo accumulates energy with the processor off until the active
// set reaches target volts, or until maxWait elapses. It returns the
// time spent and whether the target was reached. Latch capacitors decay
// during true outages (no input power) and may revert switches
// mid-charge — exactly the §5.2 hazard.
//
// The loop is event-driven: each iteration advances one analytic
// segment bounded by the next source change, latch expiry, maxWait, or
// the target being hit (see chargeHorizon), so charging a large bank
// from a constant source costs O(1) instead of O(seconds).
func (d *Device) ChargeTo(target units.Voltage, maxWait units.Seconds) (units.Seconds, bool) {
	if d.Continuous {
		return 0, true
	}
	set := d.Store()
	var elapsed units.Seconds
	if d.Trace != nil {
		d.Trace.record(d.now, set.Voltage(), PhaseCharging)
	}
	for {
		if set.Voltage() >= target {
			if d.Trace != nil {
				d.Trace.record(d.now, set.Voltage(), PhaseCharging)
			}
			return elapsed, true
		}
		if elapsed >= maxWait {
			return elapsed, false
		}
		step, whole := d.chargeHorizon(maxWait - elapsed)
		// Within one segment the source output is constant, so whether
		// charge power flows is decided once, at the segment start —
		// the whole span is attributed to the matching counter. (The
		// old fixed-step loop reused a stale flag when the source cut
		// out mid-charge, counting dead air as TimeCharging.)
		start := d.now
		v0 := set.Voltage()
		charging := d.Sys.ChargePower(v0, start) > 0
		before := set.Energy()
		var used units.Seconds
		var reached bool
		if whole {
			// The horizon is one exact analytic segment, so the general
			// charge stepper collapses to a single closed-form segment
			// solve: same float operations, one fewer source-horizon
			// walk per segment.
			used, reached = d.Sys.StepSegment(set, target, start, step)
		} else {
			used, reached = d.Sys.TimeToChargeTo(set, target, start, step)
		}
		if gained := set.Energy() - before; gained > 0 {
			d.Stats.EnergyIntoStore += gained
		}
		d.now += used
		elapsed += used
		if charging {
			d.Stats.TimeCharging += used
		} else {
			d.Stats.TimeOff += used
		}
		if d.Trace != nil {
			d.Trace.record(d.now, set.Voltage(), PhaseCharging)
		}
		// The charge segment is observed before the passive tick: V0→V1
		// is the pure analytic charge trajectory, which is what the
		// chaos harness cross-checks numerically.
		if d.Obs != nil {
			d.observe(HookChargeSegment, start, d.now, v0, set.Voltage(), reached)
		}
		// Success is decided before the passive tick: the voltage
		// supervisor boots the device the instant the threshold is hit;
		// the leakage within the same step is immaterial.
		d.tickSpan(start, used)
		if d.Obs != nil {
			d.observe(HookSpan, start, d.now, v0, set.Voltage(), true)
		}
		if reached {
			if d.Trace != nil {
				d.Trace.record(d.now, set.Voltage(), PhaseCharging)
			}
			d.Log.add(Event{T: d.now, Kind: EventChargeDone, V: set.Voltage(), Elapsed: elapsed})
			return elapsed, true
		}
	}
}

// Boot powers the MCU up from the charged buffer: boot-time active
// drain plus a boot counter. It reports whether boot completed without
// brownout.
func (d *Device) Boot() bool {
	d.Stats.Boots++
	d.Log.add(Event{T: d.now, Kind: EventBoot})
	if !d.Continuous && d.Obs != nil {
		v := d.Store().Voltage()
		d.observe(HookBoot, d.now, d.now, v, v, true)
	}
	_, ok := d.Drain(d.MCU.ActivePower, d.MCU.BootTime)
	return ok
}

// Sleep keeps the device in a retentive low-power state for dt. The
// power system's quiescent draw continues, which is why sleeping does
// not preserve the buffer (§6.4).
func (d *Device) Sleep(dt units.Seconds) (units.Seconds, bool) {
	return d.Drain(d.MCU.SleepPower, dt)
}

// AdvanceOff lets dt pass with the device off and not charging
// (used when waiting for external conditions with a full buffer).
// Like ChargeTo it advances in event-driven segments: spans are split
// at source changes (so powered/unpowered spans tick the right array
// path) and at latch expiries (so reverts land at the right instant).
func (d *Device) AdvanceOff(dt units.Seconds) {
	for dt > 0 {
		step := dt
		if h := harvest.NextChange(d.Sys.Source, d.now); h > 0 && h < step {
			step = h
		}
		if d.powerAt(d.now) <= 0 {
			if nr := d.Array.NextRevert(); nr < step {
				step = nr
			}
		}
		// Same progress guarantee as chargeHorizon: never step by less
		// than the clock can represent.
		if m := units.MinAdvance(d.now); step < m {
			step = m
		}
		start := d.now
		v0 := d.Store().Voltage()
		d.now += step
		d.Stats.TimeOff += step
		d.tickSpan(start, step)
		if d.Obs != nil {
			d.observe(HookSpan, start, d.now, v0, d.Store().Voltage(), true)
		}
		dt -= step
	}
}

func (d *Device) String() string {
	return fmt.Sprintf("device[t=%v %s %v]", d.now, d.MCU.Name, d.Array)
}
