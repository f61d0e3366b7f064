package chaos

import (
	"context"
	"reflect"
	"testing"

	"capybara/internal/device"
	"capybara/internal/harvest"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/sim"
	"capybara/internal/storage"
	"capybara/internal/units"
)

// testDevice builds a small deterministic two-bank device for
// handcrafted checker tests.
func testDevice() *sim.Device {
	base := storage.MustBank("base",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupOf(storage.Tantalum, 1))
	big := storage.MustBank("big", storage.GroupOf(storage.EDLC, 4))
	arr := reservoir.NewArray(base, reservoir.NormallyOpen, big)
	sys := power.NewSystem(harvest.RegulatedSupply{Max: 5 * units.MilliWatt, V: 3.0})
	return sim.NewDevice(sys, arr, device.MSP430FR5969())
}

func spanEvent(kind sim.HookKind, t0, t1 units.Seconds, v0, v1 units.Voltage) sim.HookEvent {
	return sim.HookEvent{Kind: kind, T0: t0, T1: t1, V0: v0, V1: v1, OK: true}
}

func violationsOf(c *Checker, name string) []Violation {
	var out []Violation
	for _, v := range c.Violations {
		if v.Invariant == name {
			out = append(out, v)
		}
	}
	return out
}

func TestCheckerPassesOnQuietDevice(t *testing.T) {
	d := testDevice()
	c := NewChecker(d, 0, 0)
	c.Observe(d, spanEvent(sim.HookSpan, 0, 0, 0, 0))
	if len(c.Violations) != 0 {
		t.Fatalf("checker flagged an untouched device: %v", c.Violations)
	}
}

func TestCheckerCatchesEnergyCreation(t *testing.T) {
	d := testDevice()
	c := NewChecker(d, 0, 0)
	// Conjure energy out of nowhere: books say 0 in, 0 out.
	d.Array.Bank(0).SetVoltage(2.0)
	c.Observe(d, spanEvent(sim.HookSpan, 0, 0, 0, 2.0))
	if len(violationsOf(c, "energy-balance")) == 0 {
		t.Fatalf("energy created from nothing not flagged; violations: %v", c.Violations)
	}
}

func TestCheckerCatchesChargeCreationAtReconfig(t *testing.T) {
	d := testDevice()
	c := NewChecker(d, 0, 0)
	d.Array.Bank(0).SetVoltage(1.5)
	c.Observe(d, spanEvent(sim.HookReconfig, 0, 0, 1.5, 1.5))
	if len(violationsOf(c, "charge-conservation")) == 0 {
		t.Fatalf("charge created across reconfig not flagged; violations: %v", c.Violations)
	}
}

func TestCheckerCatchesUnsettledActiveSet(t *testing.T) {
	d := testDevice()
	if err := d.Array.Configure(0b11); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(d, 0, 0)
	// Diverge two electrically connected banks by hand.
	d.Array.Bank(0).SetVoltage(2.0)
	d.Array.Bank(1).SetVoltage(1.0)
	c.Observe(d, spanEvent(sim.HookSpan, 0, 0, 2.0, 2.0))
	if len(violationsOf(c, "settled-set")) == 0 {
		t.Fatalf("diverged active set not flagged; violations: %v", c.Violations)
	}
}

func TestCheckerCatchesClockRegression(t *testing.T) {
	d := testDevice()
	c := NewChecker(d, 0, 0)
	c.Observe(d, spanEvent(sim.HookSpan, 5, 1, 0, 0))
	if len(violationsOf(c, "clock-monotone")) == 0 {
		t.Fatalf("backwards span not flagged; violations: %v", c.Violations)
	}
}

func TestCheckerCatchesGhostSwitchFlip(t *testing.T) {
	d := testDevice()
	c := NewChecker(d, 0, 0)
	// First event learns the programmed states.
	c.Observe(d, spanEvent(sim.HookSpan, 0, 0, 0, 0))
	// Flip a switch behind the checker's back with a live latch.
	d.Array.Switch(1).Set(true)
	c.Observe(d, spanEvent(sim.HookSpan, 0, 1, 0, 0))
	if len(violationsOf(c, "latch-consistency")) == 0 {
		t.Fatalf("ghost switch flip not flagged; violations: %v", c.Violations)
	}
}

func TestCheckerCatchesSolverDivergence(t *testing.T) {
	d := testDevice()
	c := NewChecker(d, 0, 0)
	// Claim a charge segment gained far more voltage than the source
	// can deliver in its span (OK=false: no target snap to hide behind).
	c.Observe(d, sim.HookEvent{Kind: sim.HookChargeSegment, T0: 0, T1: 0.1, V0: 0.5, V1: 3.0})
	if len(violationsOf(c, "solver-cross-check")) == 0 {
		t.Fatalf("bogus analytic segment not flagged; violations: %v", c.Violations)
	}
}

func TestFaultSourceCutsAndHorizons(t *testing.T) {
	fs := &FaultSource{Base: harvest.RegulatedSupply{Max: 10 * units.MilliWatt, V: 3.0}}
	fs.CutAt(10, 5)

	if got := fs.PowerAt(9.999); got <= 0 {
		t.Fatal("powered before the cut")
	}
	if got := fs.PowerAt(10); got != 0 {
		t.Fatalf("cut start is inclusive; got %v", got)
	}
	if got := fs.PowerAt(15); got <= 0 {
		t.Fatal("cut end is exclusive; still dark at end")
	}
	// Outside the cut the constant base's horizon is clipped at the
	// window start; inside, at the window end.
	if h := fs.NextChange(4); h != 6 {
		t.Fatalf("horizon before cut = %v, want 6", h)
	}
	if h := fs.NextChange(12); h != 3 {
		t.Fatalf("horizon inside cut = %v, want 3", h)
	}
	// An opaque base stays opaque outside windows.
	op := &FaultSource{Base: harvest.SolarPanel{
		PeakPower:          5 * units.MilliWatt,
		OpenCircuitVoltage: 3,
		Light:              harvest.TraceFunc(func(t units.Seconds) float64 { return 0.5 }),
	}}
	op.CutAt(10, 5)
	if h := op.NextChange(0); h != 0 {
		t.Fatalf("opaque base must stay opaque, got horizon %v", h)
	}
}

func TestChaosRunCleanAndCovering(t *testing.T) {
	cfg := Config{Trials: 2 * len(scenarioNames), Seed: 1, Jobs: 4, Horizon: 150}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("chaos run found violations:\n%s", rep.Summary())
	}
	if rep.Faults == 0 {
		t.Fatal("no faults were injected")
	}
	for _, name := range scenarioNames {
		if rep.Scenarios[name] != 2 {
			t.Fatalf("scenario %q ran %d times, want 2\n%s", name, rep.Scenarios[name], rep.Summary())
		}
	}
	for _, inv := range registry {
		if inv.Check == nil {
			continue
		}
		if rep.Checks[inv.Name] == 0 {
			t.Fatalf("invariant %q never checked\n%s", inv.Name, rep.Summary())
		}
	}
}

func TestChaosRunDeterministic(t *testing.T) {
	cfg := Config{Trials: len(scenarioNames), Seed: 7, Horizon: 100}
	cfg.Jobs = 1
	serial, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Jobs = 8
	parallel, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("report depends on worker count:\nserial:\n%s\nparallel:\n%s",
			serial.Summary(), parallel.Summary())
	}
}
