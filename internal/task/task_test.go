package task

import (
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

// greedyPM is a minimal test power manager: whenever the device is off
// it recharges the active configuration to vtop and boots. It never
// reconfigures — equivalent to a fixed-capacity system.
type greedyPM struct {
	dev  *sim.Device
	vtop units.Voltage
}

func (m *greedyPM) Prepare(_ *Task, alive bool, deadline units.Seconds) bool {
	if alive {
		return true
	}
	for m.dev.Now() < deadline {
		if _, ok := m.dev.ChargeTo(m.vtop, deadline-m.dev.Now()); !ok {
			return false
		}
		if m.dev.Boot() {
			return true
		}
	}
	return false
}

func newTestEngine(t *testing.T, p units.Power, prog *Program) *Engine {
	t.Helper()
	// The bank includes one EDLC unit so that single radio packets are
	// feasible; sustained high-power drains still brown out.
	bank := storage.MustBank("test-bank",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad),
		storage.GroupOf(storage.EDLC, 1))
	arr := reservoir.NewArray(bank, reservoir.NormallyOpen)
	sys := power.NewSystem(harvest.RegulatedSupply{Max: p, V: 3.0})
	dev := sim.NewDevice(sys, arr, device.MSP430FR5969())
	return NewEngine(dev, prog, &greedyPM{dev: dev, vtop: 2.4})
}

func TestProgramValidation(t *testing.T) {
	body := func(*Ctx) Next { return Halt }
	if _, err := NewProgram("main", &Task{Name: "main", Run: body}); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	if _, err := NewProgram("missing", &Task{Name: "main", Run: body}); err == nil {
		t.Error("missing entry accepted")
	}
	if _, err := NewProgram("a", &Task{Name: "a", Run: body}, &Task{Name: "a", Run: body}); err == nil {
		t.Error("duplicate task accepted")
	}
	if _, err := NewProgram("a", &Task{Name: "a"}); err == nil {
		t.Error("bodyless task accepted")
	}
	if _, err := NewProgram("a", &Task{Name: "", Run: body}); err == nil {
		t.Error("unnamed task accepted")
	}
	if _, err := NewProgram("a", &Task{Name: "a", Run: body, PreburstBurst: "big"}); err == nil {
		t.Error("half preburst annotation accepted")
	}
}

func TestProgramNamesAndLookup(t *testing.T) {
	body := func(*Ctx) Next { return Halt }
	p := MustProgram("b", &Task{Name: "b", Run: body}, &Task{Name: "a", Run: body})
	if got := p.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names = %v", got)
	}
	if _, ok := p.Task("a"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := p.Task("zzz"); ok {
		t.Fatal("phantom task found")
	}
}

func TestEngineRunsToHalt(t *testing.T) {
	var order []string
	prog := MustProgram("first",
		&Task{Name: "first", Run: func(c *Ctx) Next {
			order = append(order, "first")
			c.Compute(1000)
			c.SetWord("x", 41)
			return "second"
		}},
		&Task{Name: "second", Run: func(c *Ctx) Next {
			order = append(order, "second")
			c.SetWord("x", c.WordOr("x", 0)+1)
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"first", "second"}) {
		t.Fatalf("order = %v", order)
	}
	if got := e.Dev.NV.WordOr("x", 0); got != 42 {
		t.Fatalf("committed x = %d, want 42", got)
	}
	if e.Restarts != 0 {
		t.Fatalf("restarts = %d", e.Restarts)
	}
}

func TestPowerFailureRestartsTask(t *testing.T) {
	attempts := 0
	prog := MustProgram("hungry",
		&Task{Name: "hungry", Run: func(c *Ctx) Next {
			attempts++
			c.AppendFloat("trace", float64(attempts))
			if attempts < 3 {
				// Demand far more than the small bank stores: brownout.
				c.drain(30*units.MilliWatt, 10)
			}
			c.Compute(1000)
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if e.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", e.Restarts)
	}
	// Only the successful attempt's staged writes survive: the series
	// holds exactly one element, from attempt 3.
	b, _ := e.Dev.NV.PeekBlob("trace")
	if got := decodeFloats(nil, b); !reflect.DeepEqual(got, []float64{3}) {
		t.Fatalf("committed series = %v, want [3] (failed attempts must be discarded)", got)
	}
}

func TestImpossibleTaskLoopsUntilHorizon(t *testing.T) {
	prog := MustProgram("impossible",
		&Task{Name: "impossible", Run: func(c *Ctx) Next {
			c.drain(30*units.MilliWatt, 10) // never satisfiable on the small bank
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(30); err != nil {
		t.Fatal(err)
	}
	if e.Dev.Now() < 30 {
		t.Fatalf("engine stopped early at %v", e.Dev.Now())
	}
	if e.Restarts == 0 {
		t.Fatal("expected restarts")
	}
}

func TestCurrentTaskPointerSurvives(t *testing.T) {
	ran := map[string]int{}
	prog := MustProgram("a",
		&Task{Name: "a", Run: func(c *Ctx) Next { ran["a"]++; return "b" }},
		&Task{Name: "b", Run: func(c *Ctx) Next {
			ran["b"]++
			if ran["b"] == 1 {
				c.drain(30*units.MilliWatt, 10) // fail once
			}
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	// Task a must NOT re-run when b fails: the durable pointer was
	// already advanced to b.
	if ran["a"] != 1 || ran["b"] != 2 {
		t.Fatalf("ran = %v, want a:1 b:2", ran)
	}
}

func TestPrivatizationReadsOwnWrites(t *testing.T) {
	prog := MustProgram("t",
		&Task{Name: "t", Run: func(c *Ctx) Next {
			c.SetWord("k", 7)
			if got := c.WordOr("k", 0); got != 7 {
				t.Errorf("staged read = %d", got)
			}
			c.SetFloat("f", 1.5)
			if got := c.FloatOr("f", 0); got != 1.5 {
				t.Errorf("staged float = %g", got)
			}
			c.AppendFloat("s", 1)
			c.AppendFloat("s", 2)
			if got := c.FloatSeries("s"); !reflect.DeepEqual(got, []float64{1, 2}) {
				t.Errorf("staged series = %v", got)
			}
			c.Delete("k")
			if _, ok := c.Word("k"); ok {
				t.Error("deleted key still visible")
			}
			c.SetWord("k", 9) // write after delete resurrects
			if got := c.WordOr("k", 0); got != 9 {
				t.Errorf("resurrected key = %d", got)
			}
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if got := e.Dev.NV.WordOr("k", 0); got != 9 {
		t.Fatalf("committed k = %d", got)
	}
}

func TestDeleteCommits(t *testing.T) {
	prog := MustProgram("w",
		&Task{Name: "w", Run: func(c *Ctx) Next { c.SetWord("gone", 1); return "d" }},
		&Task{Name: "d", Run: func(c *Ctx) Next { c.Delete("gone"); return Halt }},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Dev.NV.Word("gone"); ok {
		t.Fatal("deleted key survived commit")
	}
}

func TestUndefinedTransitionErrors(t *testing.T) {
	prog := MustProgram("t",
		&Task{Name: "t", Run: func(c *Ctx) Next { return "nowhere" }},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err == nil {
		t.Fatal("undefined transition accepted")
	}
}

func TestSampleAndTransmitTiming(t *testing.T) {
	var sampleAt, txDone units.Seconds
	tmp := device.TMP36()
	radio := device.CC2650()
	prog := MustProgram("sense",
		&Task{Name: "sense", Run: func(c *Ctx) Next {
			before := c.Now()
			sampleAt = c.Sample(tmp)
			if sampleAt != before+tmp.Warmup {
				t.Errorf("sample at %v, want warm-up offset %v", sampleAt, before+tmp.Warmup)
			}
			if c.Now() != sampleAt+tmp.OpTime {
				t.Errorf("post-sample clock %v", c.Now())
			}
			txDone = c.Transmit(radio, 25)
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if txDone <= sampleAt {
		t.Fatalf("tx completion %v not after sample %v", txDone, sampleAt)
	}
}

func TestSampleBurst(t *testing.T) {
	prox := device.ProximitySensor()
	var times []units.Seconds
	prog := MustProgram("burst",
		&Task{Name: "burst", Run: func(c *Ctx) Next {
			times = c.SampleBurst(prox, 4)
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("burst returned %d times", len(times))
	}
	for i := 1; i < len(times); i++ {
		gap := float64(times[i] - times[i-1])
		if diff := gap - float64(prox.OpTime); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("gap %d = %v, want %v", i, times[i]-times[i-1], prox.OpTime)
		}
	}
}

func TestHaltClearsPointer(t *testing.T) {
	prog := MustProgram("t", &Task{Name: "t", Run: func(c *Ctx) Next { return Halt }})
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if got := e.CurrentTask(); got != "t" {
		t.Fatalf("after halt CurrentTask = %q, want entry default", got)
	}
}

func TestPrepareDeadlineStopsEngine(t *testing.T) {
	// A dead source: the power manager can never charge; Run must
	// return cleanly rather than spin.
	prog := MustProgram("t", &Task{Name: "t", Run: func(c *Ctx) Next { return Halt }})
	small := storage.MustBank("small", storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad))
	arr := reservoir.NewArray(small, reservoir.NormallyOpen)
	sys := power.NewSystem(harvest.RegulatedSupply{Max: 0, V: 3.0})
	dev := sim.NewDevice(sys, arr, device.MSP430FR5969())
	e := NewEngine(dev, prog, &greedyPM{dev: dev, vtop: 2.4})
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if dev.Now() < 100 {
		t.Fatalf("deadline not consumed: %v", dev.Now())
	}
}

func TestCtxSleepAndActivate(t *testing.T) {
	led := device.LED()
	var before, afterSleep, activateStart units.Seconds
	prog := MustProgram("t",
		&Task{Name: "t", Run: func(c *Ctx) Next {
			before = c.Now()
			c.Sleep(0.5)
			afterSleep = c.Now()
			activateStart = c.Activate(led, 0.25)
			return Halt
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if afterSleep-before != 0.5 {
		t.Fatalf("sleep advanced %v, want 0.5", afterSleep-before)
	}
	if activateStart != afterSleep+led.Warmup {
		t.Fatalf("activate start = %v", activateStart)
	}
	if got := e.Dev.Now() - activateStart; got != 0.25 {
		t.Fatalf("activate held %v, want 0.25", got)
	}
}

func TestEngineProfileAccumulates(t *testing.T) {
	prog := MustProgram("t",
		&Task{Name: "t", Run: func(c *Ctx) Next {
			c.Compute(80_000)
			if c.WordOr("n", 0) >= 1 {
				return Halt
			}
			c.SetWord("n", 1)
			return "t"
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	p := e.Profile["t"]
	if p == nil || p.Runs != 2 {
		t.Fatalf("profile = %+v", p)
	}
	if p.MeanTime() <= 0 || p.MeanEnergy() <= 0 || p.MeanPower() <= 0 {
		t.Fatalf("profile means not positive: %+v", p)
	}
}

// TestRunUntilContinuesExactly: a run stopped at marks by RunUntil and
// continued must make the attempt sequence of one uninterrupted Run.
// The device stays powered across the calls, so a continued run boots
// no more often, and every counter and the clock agree bit for bit.
func TestRunUntilContinuesExactly(t *testing.T) {
	build := func() *Engine {
		n := 0
		prog := MustProgram("s",
			&Task{Name: "s", Run: func(c *Ctx) Next {
				n++
				c.Compute(20000)
				c.Sleep(0.01)
				if n%50 == 0 {
					brownout(c)
				}
				return "s"
			}},
		)
		return newTestEngine(t, 10*units.MilliWatt, prog)
	}
	const horizon = 40
	whole := build()
	if err := whole.Run(horizon); err != nil {
		t.Fatal(err)
	}
	split := build()
	for mark := units.Seconds(0.5); mark < 30; mark += 1.7 {
		more, err := split.RunUntil(mark, horizon)
		if err != nil || !more {
			t.Fatalf("RunUntil(%v) = %v, %v; want a run that continues", mark, more, err)
		}
		if now := split.Dev.Now(); now < mark {
			t.Fatalf("RunUntil(%v) stopped at %v", mark, now)
		}
	}
	if more, err := split.RunUntil(horizon, horizon); err != nil || more {
		t.Fatalf("RunUntil to the deadline = %v, %v; want a finished run", more, err)
	}
	if whole.Restarts == 0 || whole.Dev.Stats.Boots < 2 {
		t.Fatalf("restarts %d boots %d: the run no longer covers power failures", whole.Restarts, whole.Dev.Stats.Boots)
	}
	if whole.Dev.Stats != split.Dev.Stats || whole.Dev.Now() != split.Dev.Now() || whole.Restarts != split.Restarts {
		t.Fatalf("split run ended at %v with %+v and %d restarts, whole run at %v with %+v and %d",
			split.Dev.Now(), split.Dev.Stats, split.Restarts, whole.Dev.Now(), whole.Dev.Stats, whole.Restarts)
	}
	if !reflect.DeepEqual(whole.Profile, split.Profile) {
		t.Fatalf("profiles differ: split %+v, whole %+v", *split.Profile["s"], *whole.Profile["s"])
	}
}
