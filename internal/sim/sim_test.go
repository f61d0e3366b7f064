package sim

import (
	"testing"

	"capybara/internal/device"
	"capybara/internal/harvest"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/storage"
	"capybara/internal/units"
)

func smallBank() *storage.Bank {
	return storage.MustBank("small",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad))
}

func bigBank() *storage.Bank {
	return storage.MustBank("big", storage.GroupOf(storage.EDLC, 9))
}

func newTestDevice(p units.Power) *Device {
	sys := power.NewSystem(harvest.RegulatedSupply{Max: p, V: 3.0})
	arr := reservoir.NewArray(smallBank(), reservoir.NormallyOpen, bigBank())
	d := NewDevice(sys, arr, device.MSP430FR5969())
	return d
}

func TestChargeBootRun(t *testing.T) {
	d := newTestDevice(10 * units.MilliWatt)
	elapsed, ok := d.ChargeTo(2.4, 1e5)
	if !ok {
		t.Fatal("charge failed")
	}
	if elapsed <= 0 {
		t.Fatal("charging took no time")
	}
	if d.Now() != elapsed {
		t.Fatalf("clock %v != elapsed %v", d.Now(), elapsed)
	}
	if !d.Boot() {
		t.Fatal("boot browned out")
	}
	if d.Stats.Boots != 1 {
		t.Fatalf("boots = %d", d.Stats.Boots)
	}
	sustained, ok := d.Drain(2*units.MilliWatt, 0.01)
	if !ok || sustained != 0.01 {
		t.Fatalf("drain = (%v, %v)", sustained, ok)
	}
	if d.Stats.TimeOn <= 0 || d.Stats.EnergyDrawn <= 0 {
		t.Fatalf("stats not accumulated: %+v", d.Stats)
	}
}

func TestDrainBrownout(t *testing.T) {
	d := newTestDevice(10 * units.MilliWatt)
	if _, ok := d.ChargeTo(2.4, 1e5); !ok {
		t.Fatal("charge failed")
	}
	// The small default bank cannot run the radio for a second.
	sustained, ok := d.Drain(30*units.MilliWatt, 1.0)
	if ok {
		t.Fatal("expected brownout")
	}
	if sustained <= 0 || sustained >= 1.0 {
		t.Fatalf("sustained = %v", sustained)
	}
	if d.Stats.Brownouts != 1 {
		t.Fatalf("brownouts = %d", d.Stats.Brownouts)
	}
}

func TestBiggerConfigurationChargesSlower(t *testing.T) {
	d := newTestDevice(10 * units.MilliWatt)
	dtSmall, ok := d.ChargeTo(2.4, 1e5)
	if !ok {
		t.Fatal("small charge failed")
	}
	if !d.Boot() {
		t.Fatal("boot failed")
	}
	if err := d.Configure(0b010); err != nil {
		t.Fatal(err)
	}
	dtBig, ok := d.ChargeTo(2.4, 1e5)
	if !ok {
		t.Fatal("big charge failed")
	}
	if dtBig < 5*dtSmall {
		t.Fatalf("big config charge (%v) should dwarf small (%v)", dtBig, dtSmall)
	}
}

func TestContinuousDeviceNeverFails(t *testing.T) {
	d := newTestDevice(0) // no harvested power at all
	d.Continuous = true
	if _, ok := d.ChargeTo(2.4, 10); !ok {
		t.Fatal("continuous charge should be instantaneous")
	}
	sustained, ok := d.Drain(100*units.MilliWatt, 5)
	if !ok || sustained != 5 {
		t.Fatalf("continuous drain = (%v, %v)", sustained, ok)
	}
	if d.Now() != 5 {
		t.Fatalf("clock = %v", d.Now())
	}
}

func TestChargeToTimesOut(t *testing.T) {
	d := newTestDevice(0)
	elapsed, ok := d.ChargeTo(2.4, 50)
	if ok {
		t.Fatal("charge with dead source succeeded")
	}
	if elapsed != 50 {
		t.Fatalf("elapsed = %v, want 50", elapsed)
	}
	if d.Stats.TimeOff != 50 {
		t.Fatalf("TimeOff = %v (dead-source wait must count as off)", d.Stats.TimeOff)
	}
}

func TestChargeAccountingSourceCutsOut(t *testing.T) {
	// Regression: the fixed-step loop decided "charging vs off" from a
	// stale flag carried across iterations, so when the source died
	// mid-charge the dead air kept counting as TimeCharging. The
	// event-driven loop attributes each segment from its own start.
	//
	// Source on for exactly 10 s, then dark until t=110 s. 100 µW can
	// not lift the bank to 2.4 V in 10 s, so a 30 s wait splits into
	// exactly 10 s charging + 20 s off.
	src := harvest.SolarPanel{
		PeakPower:          100 * units.MicroWatt,
		OpenCircuitVoltage: 3.0,
		Light:              harvest.BlackoutTrace(harvest.ConstantTrace(1), [2]units.Seconds{10, 100}),
	}
	sys := power.NewSystem(src)
	arr := reservoir.NewArray(smallBank(), reservoir.NormallyOpen)
	d := NewDevice(sys, arr, device.MSP430FR5969())
	elapsed, ok := d.ChargeTo(2.4, 30)
	if ok {
		t.Fatalf("charge reached target at %v; the test needs a starved source", elapsed)
	}
	if elapsed != 30 {
		t.Fatalf("elapsed = %v, want 30", elapsed)
	}
	if got := d.Stats.TimeCharging; got != 10 {
		t.Errorf("TimeCharging = %v, want exactly 10 (the powered span)", got)
	}
	if got := d.Stats.TimeOff; got != 20 {
		t.Errorf("TimeOff = %v, want exactly 20 (the dark span)", got)
	}
	if sum := d.Stats.TimeCharging + d.Stats.TimeOff; sum != elapsed {
		t.Errorf("TimeCharging+TimeOff = %v, want %v", sum, elapsed)
	}
}

func TestLatchRevertDuringOutage(t *testing.T) {
	// Input power dies while the big bank is connected. After the latch
	// retention expires the NO switch reverts to the small default.
	src := harvest.SolarPanel{
		PeakPower:          10 * units.MilliWatt,
		OpenCircuitVoltage: 3.0,
		Light:              harvest.BlackoutTrace(harvest.ConstantTrace(1), [2]units.Seconds{5, 2000}),
	}
	sys := power.NewSystem(src)
	arr := reservoir.NewArray(smallBank(), reservoir.NormallyOpen, bigBank())
	d := NewDevice(sys, arr, device.MSP430FR5969())
	if _, ok := d.ChargeTo(2.0, 4); !ok {
		t.Fatal("initial charge failed")
	}
	if !d.Boot() {
		t.Fatal("boot failed")
	}
	if err := d.Configure(0b010); err != nil {
		t.Fatal(err)
	}
	if d.Array.ActiveMask() != 0b011 {
		t.Fatal("configure failed")
	}
	// Ride into the blackout: charging makes no progress, latch decays.
	d.ChargeTo(3.5, 800)
	if d.Array.ActiveMask() != 0b001 {
		t.Fatalf("switch should have reverted during outage, mask=%#b", d.Array.ActiveMask())
	}
	if d.Array.Reverts == 0 {
		t.Fatal("revert not counted")
	}
}

func TestTraceRecordsPhases(t *testing.T) {
	d := newTestDevice(10 * units.MilliWatt)
	d.Trace = &Trace{MinInterval: 0.05}
	d.ChargeTo(2.4, 1e5)
	d.Boot()
	d.Drain(2*units.MilliWatt, 0.2)
	if len(d.Trace.Samples) < 3 {
		t.Fatalf("trace too sparse: %d samples", len(d.Trace.Samples))
	}
	sawCharging, sawRunning := false, false
	last := units.Seconds(-1)
	for _, s := range d.Trace.Samples {
		if s.T < last {
			t.Fatalf("trace not monotonic at %v", s.T)
		}
		last = s.T
		switch s.Phase {
		case PhaseCharging:
			sawCharging = true
		case PhaseRunning:
			sawRunning = true
		}
	}
	if !sawCharging || !sawRunning {
		t.Fatalf("phases missing: charging=%v running=%v", sawCharging, sawRunning)
	}
}

func TestSleepDrainsQuiescent(t *testing.T) {
	d := newTestDevice(10 * units.MilliWatt)
	d.ChargeTo(2.4, 1e5)
	v0 := d.Store().Voltage()
	if _, ok := d.Sleep(5); !ok {
		t.Fatal("sleep browned out unexpectedly")
	}
	if d.Store().Voltage() >= v0 {
		t.Fatal("sleep should still drain the buffer via quiescent overhead")
	}
}

func TestAdvanceOff(t *testing.T) {
	d := newTestDevice(10 * units.MilliWatt)
	d.AdvanceOff(42)
	if d.Now() != 42 || d.Stats.TimeOff != 42 {
		t.Fatalf("AdvanceOff: now=%v off=%v", d.Now(), d.Stats.TimeOff)
	}
	d.AdvanceOff(-5)
	if d.Now() != 42 {
		t.Fatal("negative AdvanceOff moved the clock")
	}
}

func TestPhaseStrings(t *testing.T) {
	for _, p := range []Phase{PhaseOff, PhaseCharging, PhaseRunning} {
		if p.String() == "" {
			t.Errorf("phase %d empty", p)
		}
	}
	if newTestDevice(units.MilliWatt).String() == "" {
		t.Error("device stringer empty")
	}
}

func TestEventLogTimeline(t *testing.T) {
	d := newTestDevice(10 * units.MilliWatt)
	d.Log = &EventLog{}
	d.ChargeTo(2.4, 1e5)
	d.Boot()
	d.Configure(0b010)
	d.Drain(30*units.MilliWatt, 10) // browns out
	events := d.Log.Events()
	if len(events) < 4 {
		t.Fatalf("timeline too short: %v", events)
	}
	seen := make(map[EventKind]bool)
	for _, e := range events {
		seen[e.Kind] = true
	}
	for _, kind := range []EventKind{EventChargeDone, EventBoot, EventReconfig, EventBrownout} {
		if !seen[kind] {
			t.Errorf("missing %v events: %v", kind, events)
		}
	}
	// Timeline is time-ordered.
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	for _, e := range events {
		if e.String() == "" || e.Kind.String() == "" {
			t.Fatal("empty event rendering")
		}
	}
}

func TestEventLogBounded(t *testing.T) {
	l := &EventLog{Max: 8}
	for i := 0; i < 20; i++ {
		l.add(Event{T: units.Seconds(i), Kind: EventBoot})
	}
	if len(l.Events()) > 8 {
		t.Fatalf("log exceeded bound: %d", len(l.Events()))
	}
	if l.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
	// The newest events survive.
	events := l.Events()
	if events[len(events)-1].T != 19 {
		t.Fatalf("newest event lost: %v", events)
	}
	// A nil log is a no-op.
	var nilLog *EventLog
	nilLog.add(Event{Kind: EventBoot})
}

func TestEventLogRevertRecorded(t *testing.T) {
	src := harvest.SolarPanel{
		PeakPower:          10 * units.MilliWatt,
		OpenCircuitVoltage: 3.0,
		Light:              harvest.BlackoutTrace(harvest.ConstantTrace(1), [2]units.Seconds{5, 2000}),
	}
	sys := power.NewSystem(src)
	arr := reservoir.NewArray(smallBank(), reservoir.NormallyOpen, bigBank())
	d := NewDevice(sys, arr, device.MSP430FR5969())
	d.Log = &EventLog{}
	d.ChargeTo(2.0, 4)
	d.Boot()
	d.Configure(0b010)
	d.ChargeTo(3.5, 800)
	for _, e := range d.Log.Events() {
		if e.Kind == EventRevert {
			return
		}
	}
	t.Fatalf("revert not logged: %v", d.Log.Events())
}
