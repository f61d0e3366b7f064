package core

import (
	"fmt"
	"strings"
	"testing"

	"capybara/internal/device"
	"capybara/internal/harvest"
	"capybara/internal/reservoir"
	"capybara/internal/storage"
	"capybara/internal/task"
	"capybara/internal/units"
)

func smallBank() *storage.Bank {
	return storage.MustBank("small",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad))
}

func bigBank() *storage.Bank {
	return storage.MustBank("big", storage.GroupOf(storage.EDLC, 6)) // 45 mF
}

func baseConfig(v Variant) Config {
	return Config{
		Variant:    v,
		Source:     harvest.RegulatedSupply{Max: 10 * units.MilliWatt, V: 3.0},
		MCU:        device.MSP430FR5969(),
		Base:       smallBank(),
		Switched:   []*storage.Bank{bigBank()},
		SwitchKind: reservoir.NormallyOpen,
		Modes: []Mode{
			{Name: "small", Mask: 0b001},
			{Name: "big", Mask: 0b010},
		},
	}
}

func TestModeTableValidation(t *testing.T) {
	if _, err := NewModeTable(Mode{Name: "a"}, Mode{Name: "a"}); err == nil {
		t.Error("duplicate mode accepted")
	}
	if _, err := NewModeTable(Mode{Name: ""}); err == nil {
		t.Error("empty mode name accepted")
	}
	if _, err := NewModeTable(Mode{Name: "a"}, Mode{Name: "b"}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	prog := task.MustProgram("t", &task.Task{Name: "t", Config: "small", Run: func(*task.Ctx) task.Next { return task.Halt }})
	cfg := baseConfig(CapyP)
	cfg.Modes = []Mode{{Name: "small", Mask: 0b100}} // bank 2 does not exist
	if _, err := New(cfg, prog); err == nil {
		t.Error("out-of-range mask accepted")
	}
	cfg = baseConfig(CapyP)
	cfg.Modes = []Mode{{Name: "other", Mask: 0b010}}
	if _, err := New(cfg, prog); err == nil {
		t.Error("undefined mode reference accepted")
	}
}

// TestNewNamesFirstBadMode: with two modes whose masks address missing
// banks, the error names the first declared one on every build. The
// mode table is a map, so a check ranging over it would name either.
func TestNewNamesFirstBadMode(t *testing.T) {
	prog := task.MustProgram("t", &task.Task{Name: "t", Run: func(*task.Ctx) task.Next { return task.Halt }})
	for i := 0; i < 64; i++ {
		cfg := baseConfig(CapyP)
		cfg.Modes = []Mode{{Name: "first", Mask: 0b100}, {Name: "second", Mask: 0b1000}}
		_, err := New(cfg, prog)
		if err == nil || !strings.Contains(err.Error(), `"first"`) {
			t.Fatalf("build %d: err = %v, want it to name mode \"first\"", i, err)
		}
	}
}

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{Continuous: "Cont", Fixed: "Fixed", CapyR: "Capy-R", CapyP: "Capy-P"}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestContinuousVariantRunsWithoutCharging(t *testing.T) {
	radio := device.CC2650()
	var txAt units.Seconds
	prog := task.MustProgram("tx",
		&task.Task{Name: "tx", Config: "big", Run: func(c *task.Ctx) task.Next {
			txAt = c.Transmit(radio, 25)
			return task.Halt
		}})
	inst, err := New(baseConfig(Continuous), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(1e6); err != nil {
		t.Fatal(err)
	}
	// Only boot time and the packet itself elapse — no charging.
	if txAt > 0.1 {
		t.Fatalf("continuous tx at %v, want well under 100 ms", txAt)
	}
	if inst.Dev.Stats.TimeCharging != 0 {
		t.Fatalf("continuous device charged for %v", inst.Dev.Stats.TimeCharging)
	}
}

func TestFixedVariantRechargesAfterDepletion(t *testing.T) {
	cycles := 0
	prog := task.MustProgram("spin",
		&task.Task{Name: "spin", Run: func(c *task.Ctx) task.Next {
			c.Compute(200_000)
			cycles++
			if cycles >= 25 {
				return task.Halt
			}
			return "spin"
		}})
	cfg := baseConfig(Fixed)
	cfg.Switched = nil
	cfg.Modes = nil
	inst, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if cycles != 25 {
		t.Fatalf("cycles = %d", cycles)
	}
	// The small bank cannot hold 25 compute quanta: the device must
	// have died and recharged at least once.
	if inst.Dev.Stats.Boots < 2 {
		t.Fatalf("boots = %d, want ≥ 2 (duty cycling)", inst.Dev.Stats.Boots)
	}
	if inst.Runtime.Reconfigs != 0 {
		t.Fatalf("fixed system reconfigured %d times", inst.Runtime.Reconfigs)
	}
}

func TestCapyPReconfiguresBetweenModes(t *testing.T) {
	hits := map[string]int{}
	prog := task.MustProgram("sense",
		&task.Task{Name: "sense", Config: "small", Run: func(c *task.Ctx) task.Next {
			hits["sense"]++
			c.Compute(10_000)
			return "send"
		}},
		&task.Task{Name: "send", Config: "big", Run: func(c *task.Ctx) task.Next {
			hits["send"]++
			c.Transmit(device.CC2650(), 25)
			return task.Halt
		}})
	inst, err := New(baseConfig(CapyP), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if hits["sense"] != 1 || hits["send"] != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if inst.Runtime.Reconfigs == 0 {
		t.Fatal("no reconfiguration for the big mode")
	}
	// After entering the big mode the array must have bank 1 active.
	if mask := inst.Dev.Array.ActiveMask(); mask != 0b011 {
		t.Fatalf("final mask = %#b, want 0b011", mask)
	}
}

func TestSameModeNoChargePause(t *testing.T) {
	// Consecutive tasks in the same mode must not pause to recharge:
	// the device keeps running on its remaining buffer.
	prog := task.MustProgram("a",
		&task.Task{Name: "a", Config: "small", Run: func(c *task.Ctx) task.Next {
			c.Compute(1000)
			return "b"
		}},
		&task.Task{Name: "b", Config: "small", Run: func(c *task.Ctx) task.Next {
			c.Compute(1000)
			return task.Halt
		}})
	inst, err := New(baseConfig(CapyP), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(1e6); err != nil {
		t.Fatal(err)
	}
	// Exactly one charge (bring-up); no mid-program pauses.
	if inst.Dev.Stats.Boots != 1 {
		t.Fatalf("boots = %d, want 1", inst.Dev.Stats.Boots)
	}
}

// burstProgram models the paper's reactive pattern: proc pre-charges
// the big mode ("the event"), then the burst task spends it
// immediately. procEnd records when the event fired; txAt when the
// alert packet finished.
func burstProgram(radio device.Radio, procEnd, txAt *units.Seconds) *task.Program {
	return task.MustProgram("proc",
		&task.Task{Name: "proc", PreburstBurst: "big", PreburstExec: "small", Run: func(c *task.Ctx) task.Next {
			c.Compute(50_000)
			*procEnd = c.Now()
			return "alert"
		}},
		&task.Task{Name: "alert", Burst: "big", Run: func(c *task.Ctx) task.Next {
			*txAt = c.Transmit(radio, 25)
			return task.Halt
		}})
}

func TestBurstAvoidsCriticalPathCharge(t *testing.T) {
	radio := device.CC2650()

	run := func(v Variant) (latency units.Seconds, inst *Instance) {
		var procEnd, txAt units.Seconds
		inst, err := New(baseConfig(v), burstProgram(radio, &procEnd, &txAt))
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Run(1e6); err != nil {
			t.Fatal(err)
		}
		if txAt <= procEnd || procEnd <= 0 {
			t.Fatalf("%v: bad timeline proc=%v tx=%v", v, procEnd, txAt)
		}
		return txAt - procEnd, inst
	}

	latP, instP := run(CapyP)
	latR, _ := run(CapyR)
	if instP.Runtime.Precharges != 1 {
		t.Fatalf("precharges = %d, want 1", instP.Runtime.Precharges)
	}
	// Capy-P's burst fires on the pre-charged bank: the event-to-alert
	// latency is just radio startup + airtime (tens of ms). Capy-R
	// charges the 45 mF bank on the critical path: seconds.
	if latP > 0.2 {
		t.Fatalf("Capy-P latency = %v, want reactive (≤ 200 ms)", latP)
	}
	if latR < 5 {
		t.Fatalf("Capy-R latency = %v, want a multi-second charge pause", latR)
	}
}

func TestBurstBankRetainsPrecharge(t *testing.T) {
	var procEnd, txAt units.Seconds
	inst, err := New(baseConfig(CapyP), burstProgram(device.CC2650(), &procEnd, &txAt))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(1e6); err != nil {
		t.Fatal(err)
	}
	// While proc ran in the small mode, the big bank must have held
	// its pre-charge (minus the §6.4 deficit at charge time).
	want := float64(DefaultVTop - reservoir.PrechargeDeficit)
	got := float64(inst.Dev.Array.Bank(1).Voltage())
	// The burst spent the bank; its post-run voltage is below the
	// pre-charge but must be well above zero (one packet ≪ 45 mF).
	if got <= 1.0 || got >= want {
		t.Fatalf("big bank after burst = %g V, want within (1.0, %g)", got, want)
	}
}

func TestBringUpAfterLatchRevert(t *testing.T) {
	// Configure the big mode, then cut input power long enough for the
	// NO switch to revert. The bring-up path must charge the default
	// small configuration and still make progress.
	src := harvest.SolarPanel{
		PeakPower:          10 * units.MilliWatt,
		OpenCircuitVoltage: 3.0,
		Light:              harvest.BlackoutTrace(harvest.ConstantTrace(1), [2]units.Seconds{60, 600}),
	}
	cfg := baseConfig(CapyP)
	cfg.Source = src
	steps := 0
	prog := task.MustProgram("work",
		&task.Task{Name: "work", Config: "big", Run: func(c *task.Ctx) task.Next {
			steps++
			c.Compute(100_000)
			if c.Now() > 700 {
				return task.Halt
			}
			// Busy-wait across the blackout by spinning compute.
			return "work"
		}})
	inst, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(900); err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no progress at all")
	}
	if inst.Dev.Array.Reverts == 0 {
		t.Fatal("expected a latch revert during the blackout")
	}
}

func TestProvisionFindsMinimalBank(t *testing.T) {
	sys := testPowerSystem()
	radio := device.CC2650()
	mcu := device.MSP430FR5969()
	load := radio.TxPower + mcu.ActivePower
	dur := radio.StartupTime + radio.PacketTime(25)
	g, err := Provision(sys, storage.Tantalum, load, dur, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Count < 1 {
		t.Fatalf("count = %d", g.Count)
	}
	// Minimality: one unit fewer must fail.
	if g.Count > 1 {
		smaller := storage.MustBank("x", storage.GroupOf(storage.Tantalum, g.Count-1))
		smaller.SetVoltage(2.4)
		if _, ok := sys.Discharge(smaller, load, dur); ok {
			t.Fatalf("%d units suffice but Provision returned %d", g.Count-1, g.Count)
		}
	}
	exact := storage.MustBank("x", storage.GroupOf(storage.Tantalum, g.Count))
	exact.SetVoltage(2.4)
	if _, ok := sys.Discharge(exact, load, dur); !ok {
		t.Fatal("provisioned bank cannot run the task")
	}
}

func TestProvisionInfeasible(t *testing.T) {
	sys := testPowerSystem()
	// A capacitor rated below the output booster's minimum input can
	// never deliver useful energy.
	hopeless := storage.Technology{
		Name: "under-rated", UnitCap: units.MilliFarad, UnitVolume: 1,
		UnitESR: 0.1, RatedVoltage: 1.0,
	}
	if _, err := Provision(sys, hopeless, 10*units.MilliWatt, 1, 2.4); err == nil {
		t.Fatal("infeasible provisioning succeeded")
	}
}

func TestDerate(t *testing.T) {
	g := storage.GroupOf(storage.Tantalum, 10)
	d := Derate(g, 0.2)
	if d.Count != 12 {
		t.Fatalf("derated count = %d, want 12", d.Count)
	}
	// Derating always adds at least one unit.
	if got := Derate(storage.GroupOf(storage.Tantalum, 1), 0.01).Count; got != 2 {
		t.Fatalf("small derate count = %d, want 2", got)
	}
	if got := Derate(g, 0); got.Count != 10 {
		t.Fatalf("zero margin changed count: %d", got.Count)
	}
}

// TestBringUpTargetFollowsDeclarationOrder: when two modes share the
// physically active bank mask but differ in VTop, the bring-up charge
// target is the first declared mode's, on every build. The mode table
// is a map, and resolving the target by ranging over it returned either
// VTop at random.
func TestBringUpTargetFollowsDeclarationOrder(t *testing.T) {
	prog := task.MustProgram("t", &task.Task{Name: "t", Run: func(*task.Ctx) task.Next { return task.Halt }})
	low := Mode{Name: "low", VTop: 2.0}
	high := Mode{Name: "high", VTop: 2.4}
	for _, tc := range []struct {
		modes []Mode
		want  units.Voltage
	}{
		{[]Mode{low, high}, 2.0},
		{[]Mode{high, low}, 2.4},
	} {
		for i := 0; i < 200; i++ {
			cfg := baseConfig(Fixed)
			cfg.Switched = nil
			cfg.Modes = tc.modes
			inst, err := New(cfg, prog)
			if err != nil {
				t.Fatal(err)
			}
			if got := inst.Runtime.activeVTop(); got != tc.want {
				t.Fatalf("modes %s then %s: build %d charges to %v, want %v",
					tc.modes[0].Name, tc.modes[1].Name, i, got, tc.want)
			}
		}
	}
}

// TestRestoreContinuesRun: an instance stopped between two attempts,
// saved, and restored into a fresh instance of the same build continues
// exactly as the saved one does and as an uninterrupted run does, on
// every variant. The program writes NV words and a recycled blob and
// reconfigures, so every layer of the snapshot carries state.
func TestRestoreContinuesRun(t *testing.T) {
	radio := device.CC2650()
	prog := func() *task.Program {
		return task.MustProgram("sense",
			&task.Task{Name: "sense", PreburstBurst: "big", PreburstExec: "small", Run: func(c *task.Ctx) task.Next {
				c.Compute(20000)
				n := c.WordOr("n", 0) + 1
				c.SetWord("n", n)
				series := append(c.FloatSeries("series"), float64(c.Now()))
				if len(series) > 4 {
					series = series[1:]
				}
				c.SetFloats("series", series)
				if n%40 == 0 {
					return "tx"
				}
				c.Sleep(0.05)
				return "sense"
			}},
			&task.Task{Name: "tx", Burst: "big", Run: func(c *task.Ctx) task.Next {
				c.Transmit(radio, 25)
				return "sense"
			}},
		)
	}
	digest := func(inst *Instance) string {
		vals, mask := inst.Dev.Array.AppendState(nil)
		nv := inst.Dev.NV
		var words []uint64
		for _, k := range nv.Keys() {
			w, _ := nv.Word(k)
			b, _ := nv.PeekBlob(k)
			words = append(words, w, uint64(len(b)))
		}
		p := make(map[string]task.TaskProfile)
		for name, tp := range inst.Engine.Profile {
			p[name] = *tp
		}
		a := inst.Dev.Array
		return fmt.Sprint(inst.Dev.Now(), inst.Dev.Stats, vals, mask, a.ShareLoss, a.LeakLoss, a.Reconfigurations,
			a.Reverts, nv.Keys(), words, nv.Writes(), inst.Engine.Restarts, p, inst.Runtime.Reconfigs, inst.Runtime.Precharges)
	}
	const mark, horizon = 30, 120
	for _, v := range []Variant{Continuous, Fixed, CapyR, CapyP} {
		build := func() *Instance {
			cfg := baseConfig(v)
			cfg.Source = harvest.RegulatedSupply{Max: 2 * units.MilliWatt, V: 3.0}
			inst, err := New(cfg, prog())
			if err != nil {
				t.Fatal(err)
			}
			return inst
		}
		whole := build()
		if err := whole.Run(horizon); err != nil {
			t.Fatal(err)
		}
		saved := build()
		if more, err := saved.Engine.RunUntil(mark, horizon); err != nil || !more {
			t.Fatalf("%v: RunUntil = %v, %v", v, more, err)
		}
		st := saved.Save()
		restored := build()
		restored.Restore(&st)
		for _, inst := range []*Instance{saved, restored} {
			if err := inst.Run(horizon); err != nil {
				t.Fatal(err)
			}
		}
		want := digest(whole)
		if got := digest(saved); got != want {
			t.Errorf("%v: stopped and continued run\n%s\nwant\n%s", v, got, want)
		}
		if got := digest(restored); got != want {
			t.Errorf("%v: restored run\n%s\nwant\n%s", v, got, want)
		}
		if v == CapyP && (whole.Runtime.Precharges == 0 || whole.Dev.NV.Writes() == 0) {
			t.Errorf("%v: %d precharges, %d NV writes: the program no longer exercises them", v, whole.Runtime.Precharges, whole.Dev.NV.Writes())
		}
	}
}
