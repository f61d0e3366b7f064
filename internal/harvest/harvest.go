// Package harvest models the energy sources that feed a Capybara power
// system: solar panels, regulated bench supplies, and RF harvesters,
// together with the time-varying environmental traces that drive them
// and the input voltage limiter from the paper's power distribution
// circuit (§5.1).
package harvest

import (
	"fmt"
	"math"

	"capybara/internal/units"
)

// Source is an energy harvester. At simulated time t it produces
// PowerAt(t) at open-circuit voltage VoltageAt(t). The power system's
// input booster performs maximum-power-point extraction, so PowerAt is
// the power actually deliverable into the booster.
type Source interface {
	// PowerAt returns the harvestable power at time t.
	PowerAt(t units.Seconds) units.Power
	// VoltageAt returns the harvester's output voltage at time t. The
	// input booster needs this to decide whether the bypass diode path
	// can charge directly (voltage above the storage voltage) or the
	// boost path is required.
	VoltageAt(t units.Seconds) units.Voltage
}

// Stepped is optionally implemented by sources and traces whose output
// is piecewise constant. NextChange(t) returns a duration h > 0 such
// that the output is constant on [t, t+h); h may be Forever for
// sources that never change. Implementations must be conservative: it
// is always legal to report a horizon shorter than the true one, and a
// return of 0 means "unknown — assume the output can change at any
// moment". The event-driven charge solver (internal/power,
// internal/sim) uses this to jump analytically across whole segments
// instead of ticking a fixed-step clock.
type Stepped interface {
	NextChange(t units.Seconds) units.Seconds
}

// Forever is the horizon reported by sources whose output never
// changes (regulated supplies, constant traces).
var Forever = units.Seconds(math.Inf(1))

// NextChange reports how long x's output is guaranteed constant
// starting at t. x is typically a Source or a Trace. If x does not
// implement Stepped (or reports an unusable horizon), NextChange
// returns 0: callers must fall back to conservative fixed-step
// integration.
func NextChange(x any, t units.Seconds) units.Seconds {
	st, ok := x.(Stepped)
	if !ok {
		return 0
	}
	h := st.NextChange(t)
	if h < 0 || math.IsNaN(float64(h)) {
		return 0
	}
	return h
}

// Trace is a dimensionless environmental intensity over time in [0, 1]
// (e.g. normalized irradiance). Traces compose multiplicatively. The
// constructors in this package return traces that also implement
// Stepped where the shape allows it.
type Trace interface {
	Level(t units.Seconds) float64
}

// TraceFunc adapts an arbitrary function to the Trace interface. It is
// opaque to the event solver (no Stepped implementation), so sources
// driven by a TraceFunc take the conservative fixed-step path.
type TraceFunc func(t units.Seconds) float64

// Level implements Trace.
func (f TraceFunc) Level(t units.Seconds) float64 { return f(t) }

type constantTrace float64

func (c constantTrace) Level(units.Seconds) float64            { return float64(c) }
func (c constantTrace) NextChange(units.Seconds) units.Seconds { return Forever }

// ConstantTrace returns level at all times, clamped to [0, 1].
func ConstantTrace(level float64) Trace {
	return constantTrace(clamp01(level))
}

type pwmTrace struct {
	duty   float64
	period units.Seconds
}

// fastMod returns x modulo y in [0, y) for y > 0. math.Mod's
// bit-normalization loop dominates CPU profiles of PWM-gated charge
// workloads; floor and fused multiply-add compile to single
// instructions, and the correction branches repair the at-most-one-off
// quotient when x/y rounds across an integer.
func fastMod(x, y float64) float64 {
	r := math.FMA(-math.Floor(x/y), y, x)
	if r < 0 {
		r += y
	} else if r >= y {
		r -= y
	}
	return r
}

func (p pwmTrace) phase(t units.Seconds) float64 {
	// fastMod keeps the phase in [0, 1); negative t wraps into the
	// same cycle position.
	return fastMod(float64(t), float64(p.period)) / float64(p.period)
}

func (p pwmTrace) Level(t units.Seconds) float64 {
	if p.phase(t) < p.duty {
		return 1
	}
	return 0
}

// NextChange implements Stepped: the output is constant until the next
// PWM edge.
func (p pwmTrace) NextChange(t units.Seconds) units.Seconds {
	ph := p.phase(t)
	var frac float64
	if ph < p.duty {
		frac = p.duty - ph
	} else {
		frac = 1 - ph
	}
	h := units.Seconds(frac * float64(p.period))
	// Float modulo can land exactly on an edge; never report a
	// non-positive horizon for an output that is constant on some
	// open interval.
	if h <= 0 {
		h = units.Seconds(math.Min(float64(p.period), 1e-9))
	}
	return h
}

// PWMTrace models the paper's PWM-dimmed halogen bulb: the long-term
// average intensity equals duty, delivered as a fast square wave with
// the given period. Thermal mass of the bulb filament and the booster's
// input capacitor average the chopping, so consumers see the duty-
// scaled level; the square wave matters only for sub-period sampling.
func PWMTrace(duty float64, period units.Seconds) Trace {
	duty = clamp01(duty)
	if period <= 0 {
		return ConstantTrace(duty)
	}
	return pwmTrace{duty: duty, period: period}
}

type diurnalTrace struct {
	period units.Seconds
}

func (d diurnalTrace) Level(t units.Seconds) float64 {
	s := math.Sin(2 * math.Pi * float64(t) / float64(d.period))
	if s < 0 {
		return 0
	}
	return s
}

// NextChange implements Stepped. During the night half the output is
// constant zero until the next dawn; during the day the sinusoid
// varies continuously, so the horizon is unknown (0).
func (d diurnalTrace) NextChange(t units.Seconds) units.Seconds {
	ph := fastMod(float64(t), float64(d.period))
	if ph >= float64(d.period)/2 {
		h := units.Seconds(float64(d.period) - ph)
		if h > 0 {
			return h
		}
	}
	return 0
}

// DiurnalTrace models a day/night cycle: intensity follows the positive
// half of a sinusoid with the given period (e.g. 24 h, or ~90 min for
// a low-earth-orbit satellite), zero during the "night" half.
func DiurnalTrace(period units.Seconds) Trace {
	if period <= 0 {
		return ConstantTrace(0)
	}
	return diurnalTrace{period: period}
}

type blackoutTrace struct {
	base    Trace
	windows [][2]units.Seconds
}

func (b blackoutTrace) Level(t units.Seconds) float64 {
	for _, w := range b.windows {
		if t >= w[0] && t < w[0]+w[1] {
			return 0
		}
	}
	return b.base.Level(t)
}

// NextChange implements Stepped: inside a blackout window the output
// is zero until the window ends; outside, the base horizon is clamped
// at the next window start.
func (b blackoutTrace) NextChange(t units.Seconds) units.Seconds {
	for _, w := range b.windows {
		if t >= w[0] && t < w[0]+w[1] {
			return w[0] + w[1] - t
		}
	}
	h := NextChange(b.base, t)
	if h <= 0 {
		return 0
	}
	for _, w := range b.windows {
		if w[0] > t && w[0]-t < h {
			h = w[0] - t
		}
	}
	return h
}

// BlackoutTrace wraps base, forcing intensity to zero inside each
// [start, start+dur) window. Used for adversarial input-power timing
// experiments (the NO-switch retry hazard, paper §5.2).
func BlackoutTrace(base Trace, windows ...[2]units.Seconds) Trace {
	return blackoutTrace{base: base, windows: windows}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// RegulatedSupply models the paper's GRC harvester: "a voltage
// regulator and an attenuating resistor that supplies at most 10 mW".
// Power is constant; voltage is the regulator setpoint.
type RegulatedSupply struct {
	Max units.Power
	V   units.Voltage
}

// PowerAt implements Source.
func (s RegulatedSupply) PowerAt(units.Seconds) units.Power { return s.Max }

// VoltageAt implements Source.
func (s RegulatedSupply) VoltageAt(units.Seconds) units.Voltage { return s.V }

// NextChange implements Stepped: a regulated supply never changes.
func (s RegulatedSupply) NextChange(units.Seconds) units.Seconds { return Forever }

func (s RegulatedSupply) String() string {
	return fmt.Sprintf("regulated supply (%v @ %v)", s.Max, s.V)
}

// SolarPanel models one or more photovoltaic panels under a light
// trace. PeakPower is the electrical output at trace level 1.0.
// Panels wired in series multiply voltage; in parallel they multiply
// power. The paper's TA rig: two TrisolX panels under a 20 W halogen
// at 42 % PWM.
type SolarPanel struct {
	// PeakPower is one panel's output at full trace intensity.
	PeakPower units.Power
	// OpenCircuitVoltage is one panel's Voc at full intensity.
	OpenCircuitVoltage units.Voltage
	// Series is the number of panels wired in series (≥ 1). Series
	// wiring is the paper's dim-light trick: it raises voltage into the
	// booster's usable range while the limiter guards bright light.
	Series int
	// Parallel is the number of series strings in parallel (≥ 1).
	Parallel int
	// Light is the irradiance trace; nil means constant full sun.
	Light Trace
}

func (p SolarPanel) dims() (series, parallel int) {
	series, parallel = p.Series, p.Parallel
	if series < 1 {
		series = 1
	}
	if parallel < 1 {
		parallel = 1
	}
	return series, parallel
}

func (p SolarPanel) level(t units.Seconds) float64 {
	if p.Light == nil {
		return 1
	}
	return clamp01(p.Light.Level(t))
}

// PowerAt implements Source: total power scales with panel count and
// light level.
func (p SolarPanel) PowerAt(t units.Seconds) units.Power {
	series, parallel := p.dims()
	return units.Power(float64(p.PeakPower) * float64(series*parallel) * p.level(t))
}

// VoltageAt implements Source: series strings add voltage; a panel's
// voltage sags logarithmically as light dims (photovoltaic Voc ∝
// ln(irradiance)), approximated here by a square-root falloff that
// keeps the curve monotone and zero at darkness.
func (p SolarPanel) VoltageAt(t units.Seconds) units.Voltage {
	series, _ := p.dims()
	return units.Voltage(float64(p.OpenCircuitVoltage) * float64(series) * math.Sqrt(p.level(t)))
}

// NextChange implements Stepped: the panel output is constant exactly
// as long as its light trace is.
func (p SolarPanel) NextChange(t units.Seconds) units.Seconds {
	if p.Light == nil {
		return Forever
	}
	return NextChange(p.Light, t)
}

func (p SolarPanel) String() string {
	series, parallel := p.dims()
	return fmt.Sprintf("solar %dS%dP (%v, Voc %v)", series, parallel, p.PeakPower, p.OpenCircuitVoltage)
}

// RFHarvester models a far-field RF power harvester (e.g. the P2110B
// the paper cites as an over-specialized design). Received power falls
// with the square of distance.
type RFHarvester struct {
	// TransmitPower is the radiated power of the RF source.
	TransmitPower units.Power
	// Distance is the range to the source in metres.
	Distance float64
	// Efficiency is the RF-to-DC conversion efficiency in (0, 1].
	Efficiency float64
	// V is the rectified output voltage.
	V units.Voltage
}

// PowerAt implements Source using a free-space path-loss model with a
// reference gain of 1 m².
func (r RFHarvester) PowerAt(units.Seconds) units.Power {
	if r.Distance <= 0 {
		return 0
	}
	eff := r.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 0.5
	}
	return units.Power(float64(r.TransmitPower) * eff / (4 * math.Pi * r.Distance * r.Distance))
}

// VoltageAt implements Source.
func (r RFHarvester) VoltageAt(units.Seconds) units.Voltage { return r.V }

// NextChange implements Stepped: a fixed-range RF field is constant.
func (r RFHarvester) NextChange(units.Seconds) units.Seconds { return Forever }

// Limiter is the input voltage limiter from the paper's power
// distribution circuit: it allows the harvester voltage to rise above
// component ratings (solar panels in series for dim light) by clamping
// what downstream components see.
type Limiter struct {
	Source Source
	Max    units.Voltage
}

// PowerAt implements Source. Power clipped by the limiter above Max is
// dissipated: the deliverable power is reduced proportionally to the
// voltage clamp (the limiter is a shunt).
func (l Limiter) PowerAt(t units.Seconds) units.Power {
	v := l.Source.VoltageAt(t)
	p := l.Source.PowerAt(t)
	if l.Max <= 0 || v <= l.Max {
		return p
	}
	return units.Power(float64(p) * float64(l.Max) / float64(v))
}

// VoltageAt implements Source, clamping at Max.
func (l Limiter) VoltageAt(t units.Seconds) units.Voltage {
	v := l.Source.VoltageAt(t)
	if l.Max > 0 && v > l.Max {
		return l.Max
	}
	return v
}

// NextChange implements Stepped by delegating to the wrapped source:
// the clamp is memoryless, so the limited output changes exactly when
// the underlying source does.
func (l Limiter) NextChange(t units.Seconds) units.Seconds {
	return NextChange(l.Source, t)
}

// AveragePower integrates a source's power over [0, horizon] with the
// given number of samples, for provisioning estimates.
func AveragePower(s Source, horizon units.Seconds, samples int) units.Power {
	if samples <= 0 || horizon <= 0 {
		return s.PowerAt(0)
	}
	var sum float64
	for i := 0; i < samples; i++ {
		t := units.Seconds(float64(i) / float64(samples) * float64(horizon))
		sum += float64(s.PowerAt(t))
	}
	return units.Power(sum / float64(samples))
}
