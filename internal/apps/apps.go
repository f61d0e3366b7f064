// Package apps implements the paper's three evaluation applications
// (§6.1) on the Capybara software interface:
//
//   - GRC — the wireless gesture-activated remote control, in its Fast
//     (joined gesture+transmit task) and Compact (separate tasks)
//     variants;
//   - TA — the temperature monitor with alarm;
//   - CSR — correlated sensing and report (magnetometer + proximity +
//     LED + radio).
//
// Each application builds against any of the four power-system variants
// (Continuous, Fixed, Capy-R, Capy-P) with the bank provisioning the
// paper describes, and records detection/latency observables into a
// metrics.Recorder.
package apps

import (
	"fmt"

	"capybara/internal/core"
	"capybara/internal/device"
	"capybara/internal/env"
	"capybara/internal/harvest"
	"capybara/internal/metrics"
	"capybara/internal/reservoir"
	"capybara/internal/sim"
	"capybara/internal/storage"
	"capybara/internal/units"
)

// Run bundles a built application instance with its environment,
// schedule, and recorder, ready to execute.
type Run struct {
	Name     string
	Variant  core.Variant
	Schedule env.Schedule
	Horizon  units.Seconds
	Rec      *metrics.Recorder
	Inst     *core.Instance
}

// Execute runs the application to its horizon.
func (r *Run) Execute() error { return r.Inst.Run(r.Horizon) }

// Accuracy computes the run's event-detection accuracy.
func (r *Run) Accuracy() metrics.Accuracy {
	return r.Rec.ComputeAccuracy(len(r.Schedule.Events))
}

// Latency summarizes the run's event-to-report latencies.
func (r *Run) Latency() metrics.Summary {
	return metrics.Summarize(r.Rec.Latencies())
}

// EventWindows converts the schedule for gap analysis.
func (r *Run) EventWindows() []metrics.Window {
	out := make([]metrics.Window, 0, len(r.Schedule.Events))
	for _, e := range r.Schedule.Events {
		out = append(out, metrics.Window{Start: e.At, End: e.End()})
	}
	return out
}

// Gaps classifies the run's inter-sample intervals (Fig. 11).
func (r *Run) Gaps() []metrics.Gap {
	return metrics.AnalyzeGaps(r.Rec.Samples(), r.EventWindows())
}

// Bank factories for the paper's provisioning (§6.1). Banks must be
// constructed fresh per instance, so these are functions.

// grcSmallBank is the low-energy-mode bank both gesture variants use:
// "400 uF ceramic + 330 uF tantalum".
func grcSmallBank() *storage.Bank {
	return storage.MustBank("grc-small",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad))
}

// grcFastBigBank: GRC-Fast's burst bank. Fast trades device size for
// responsiveness: its joined gesture+transmit task needs the sum of
// both atomicity requirements in one bank, 67.5 mF.
func grcFastBigBank() *storage.Bank {
	return storage.MustBank("grc-big", storage.GroupOf(storage.EDLC, 9))
}

// grcCompactBigBank: GRC-Compact's burst bank. Compact keeps the
// device small (45 mF): each pipeline task fits individually, but the
// gesture-observe-transmit sequence often exceeds the bank without an
// intervening recharge — the latency trade-off of §6.3.
func grcCompactBigBank() *storage.Bank {
	return storage.MustBank("grc-big", storage.GroupOf(storage.EDLC, 6))
}

// grcFixedBank: "a capacity of 400 uF ceramic + 330 uF tantalum +
// 67.5 mF EDLC is provisioned to meet the maximum atomicity
// requirement".
func grcFixedBank() *storage.Bank {
	return storage.MustBank("grc-fixed",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad),
		storage.GroupOf(storage.EDLC, 9))
}

// taSmallBank: "300 uF ceramic + 100 uF tantalum" for the sampling mode.
func taSmallBank() *storage.Bank {
	return storage.MustBank("ta-small",
		storage.GroupFor(storage.CeramicX5R, 300*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 100*units.MicroFarad))
}

// taBigBank: "1000 uF tantalum + 7.5 mF EDLC" for the alarm packet.
func taBigBank() *storage.Bank {
	return storage.MustBank("ta-big",
		storage.GroupFor(storage.Tantalum, 1000*units.MicroFarad),
		storage.GroupOf(storage.EDLC, 1))
}

// taFixedBank: "a single bank of 300 uF ceramic + 1100 uF tantalum +
// 7.5 mF EDLC capacity".
func taFixedBank() *storage.Bank {
	return storage.MustBank("ta-fixed",
		storage.GroupFor(storage.CeramicX5R, 300*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 1100*units.MicroFarad),
		storage.GroupOf(storage.EDLC, 1))
}

// csrSmallBank: "a 400 uF ceramic + 330 uF tantalum bank for the
// magnetometer".
func csrSmallBank() *storage.Bank {
	return storage.MustBank("csr-small",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad))
}

// csrBigBank: "the large bank from GRC-Fast for the other mode" (45 mF).
func csrBigBank() *storage.Bank {
	return storage.MustBank("csr-big", storage.GroupOf(storage.EDLC, 6))
}

// csrFixedBank: "the same bank as GRC-Fast" for the fixed system.
func csrFixedBank() *storage.Bank { return grcFixedBank() }

// grcSupply is the GRC/CSR harvester: "a voltage regulator and an
// attenuating resistor that supplies at most 10 mW". The attenuating
// resistor holds the deliverable power well below the 10 mW ceiling at
// the operating point; 2 mW reproduces the paper's charge/discharge
// asymmetry.
func grcSupply() harvest.Source {
	return harvest.RegulatedSupply{Max: 2.5 * units.MilliWatt, V: 3.0}
}

// taSupply is the TA harvester: "two TrisolX solar panels, illuminated
// with a 20 W halogen bulb with brightness controlled by PWM to 42 %".
// The bulb's thermal mass averages the PWM chopping, so the panels see
// a constant 42 % irradiance.
func taSupply() harvest.Source {
	return harvest.SolarPanel{
		PeakPower:          0.19 * units.MilliWatt,
		OpenCircuitVoltage: 2.5,
		Series:             2,
		Light:              harvest.ConstantTrace(0.42),
	}
}

// modeSmall/modeBig are the two energy modes every application uses.
const (
	modeSmall = "small"
	modeBig   = "big"
)

// buildConfig assembles the per-variant platform configuration. Fixed
// and Continuous use a single statically-provisioned bank (modes map to
// the base bank); the Capybara variants get a switched big bank.
func buildConfig(variant core.Variant, src harvest.Source,
	fixed, small, big *storage.Bank, trace *sim.Trace) core.Config {
	cfg := core.Config{
		Variant:    variant,
		Source:     src,
		MCU:        device.MSP430FR5969(),
		SwitchKind: reservoir.NormallyOpen,
		Trace:      trace,
	}
	switch variant {
	case core.Continuous, core.Fixed:
		cfg.Base = fixed
		cfg.Modes = []core.Mode{
			{Name: modeSmall, Mask: 0},
			{Name: modeBig, Mask: 0},
		}
	default:
		cfg.Base = small
		cfg.Switched = []*storage.Bank{big}
		cfg.Modes = []core.Mode{
			{Name: modeSmall, Mask: 0b001},
			{Name: modeBig, Mask: 0b010},
		}
	}
	return cfg
}

// Spec describes an application's default experiment parameters, used
// by the experiments package and the CLIs.
type Spec struct {
	Name string
	// Events and Mean define the default Poisson schedule (§6.2:
	// "The event sequence for TA contains 50 events over 120 minutes,
	// and for GRC and CSR — 80 events over 42 minutes").
	Events int
	Mean   units.Seconds
	// Window is how long each event remains observable.
	Window units.Seconds
	// Horizon is the experiment duration.
	Horizon units.Seconds
	// Build constructs a run for the variant and schedule. A non-nil
	// scr recycles the run's state containers (see Scratch); nil
	// allocates fresh.
	Build func(v core.Variant, sched env.Schedule, trace *sim.Trace, scr *Scratch) (*Run, error)
}

// Specs returns all four application specs keyed by name.
func Specs() map[string]Spec {
	specs := map[string]Spec{
		"TempAlarm": {
			Name: "TempAlarm", Events: 50, Mean: 144, Window: 60, Horizon: 120 * units.Minute,
			Build: NewTA,
		},
		"GestureFast": {
			Name: "GestureFast", Events: 80, Mean: 31.5, Window: 1, Horizon: 42 * units.Minute,
			Build: func(v core.Variant, s env.Schedule, tr *sim.Trace, scr *Scratch) (*Run, error) {
				return NewGRC(v, true, s, tr, scr)
			},
		},
		"GestureCompact": {
			Name: "GestureCompact", Events: 80, Mean: 31.5, Window: 1, Horizon: 42 * units.Minute,
			Build: func(v core.Variant, s env.Schedule, tr *sim.Trace, scr *Scratch) (*Run, error) {
				return NewGRC(v, false, s, tr, scr)
			},
		},
		"CorrSense": {
			Name: "CorrSense", Events: 80, Mean: 31.5, Window: 1, Horizon: 42 * units.Minute,
			Build: NewCSR,
		},
	}
	return specs
}

// SpecNames lists the application names in the paper's presentation
// order.
func SpecNames() []string {
	return []string{"TempAlarm", "GestureFast", "GestureCompact", "CorrSense"}
}

// SpecByName returns the named spec.
func SpecByName(name string) (Spec, error) {
	if s, ok := Specs()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("apps: unknown application %q", name)
}
