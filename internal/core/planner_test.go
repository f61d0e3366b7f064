package core

import (
	"math/rand"
	"testing"

	"capybara/internal/device"
	"capybara/internal/storage"
	"capybara/internal/task"
	"capybara/internal/units"
)

func taDemands() []TaskDemand {
	mcu := device.MSP430FR5969()
	tmp := device.TMP36()
	radio := device.CC2650()
	return []TaskDemand{
		{
			Name:        "sample",
			Load:        tmp.ActivePower + mcu.ActivePower,
			Duration:    tmp.Warmup + tmp.OpTime,
			MaxRecharge: 10,
		},
		{
			Name:     "alarm",
			Load:     radio.TxPower + mcu.ActivePower,
			Duration: 3 * (radio.StartupTime + radio.PacketTime(25)),
			Reactive: true,
		},
	}
}

// planned returns the plan's mode for each demand name.
func planned(p *Plan) map[string]Mode {
	out := make(map[string]Mode, len(p.Modes))
	for _, m := range p.Modes {
		out[string(m.Name)] = m
	}
	return out
}

func TestPlanModesSatisfiesDemands(t *testing.T) {
	sys := testPowerSystem()
	plan, err := PlanModes(sys, storage.EDLC, taDemands(), 2.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Modes) != 2 {
		t.Fatalf("modes = %d", len(plan.Modes))
	}
	// Every demand's planned mode must actually sustain its task:
	// simulate a discharge on the prefix bank set.
	for _, d := range taDemands() {
		m, ok := planned(plan)[d.Name]
		if !ok {
			t.Fatalf("no mode for %s", d.Name)
		}
		banks := prefixBanks(plan, m.Mask)
		trial := storage.MustBank("trial", trialGroups(banks)...)
		trial.SetVoltage(plan.VTop)
		sustained, ok := sys.Discharge(trial, d.Load, d.Duration)
		if !ok {
			t.Fatalf("demand %s not satisfied: sustained only %v of %v on %v",
				d.Name, sustained, d.Duration, trial.Capacitance())
		}
	}
	// The sample mode must be a strict subset of the alarm mode.
	sm, am := planned(plan)["sample"], planned(plan)["alarm"]
	if sm.Mask >= am.Mask {
		t.Fatalf("sample mask %#b not below alarm mask %#b", sm.Mask, am.Mask)
	}
	// Recharge estimates exist and order correctly.
	if plan.RechargeTimes["sample"] >= plan.RechargeTimes["alarm"] {
		t.Fatalf("recharge times out of order: %v vs %v",
			plan.RechargeTimes["sample"], plan.RechargeTimes["alarm"])
	}
	if plan.TotalCapacitance() <= 0 || plan.TotalVolume() <= 0 {
		t.Fatal("plan totals empty")
	}
}

func prefixBanks(p *Plan, mask uint64) []*storage.Bank {
	var banks []*storage.Bank
	for i, b := range p.Banks {
		if mask&(1<<uint(i)) != 0 {
			banks = append(banks, b)
		}
	}
	return banks
}

func trialGroups(banks []*storage.Bank) []storage.Group {
	var groups []storage.Group
	for _, b := range banks {
		groups = append(groups, b.Groups()...)
	}
	return groups
}

func TestPlanModesTemporalConstraint(t *testing.T) {
	sys := testPowerSystem()
	// A big non-reactive task with an impossible recharge bound.
	demands := []TaskDemand{{
		Name:        "greedy",
		Load:        30 * units.MilliWatt,
		Duration:    2,
		MaxRecharge: 0.001,
	}}
	if _, err := PlanModes(sys, storage.EDLC, demands, 2.4); err == nil {
		t.Fatal("impossible temporal constraint accepted")
	}
	// The same demand as a reactive burst plans fine: pre-charging
	// hides the recharge.
	demands[0].Reactive = true
	if _, err := PlanModes(sys, storage.EDLC, demands, 2.4); err != nil {
		t.Fatalf("reactive demand rejected: %v", err)
	}
}

func TestPlanModesValidation(t *testing.T) {
	sys := testPowerSystem()
	if _, err := PlanModes(sys, storage.EDLC, nil, 2.4); err == nil {
		t.Error("empty demand set accepted")
	}
	if _, err := PlanModes(sys, storage.EDLC, taDemands(), 5.0); err == nil {
		t.Error("vtop above rating accepted")
	}
	// A technology whose rating is below the output booster minimum can
	// never bank usable energy.
	hopeless := storage.Technology{
		Name: "hopeless", UnitCap: units.MilliFarad, UnitVolume: 1,
		UnitESR: 0.1, RatedVoltage: 1.0,
	}
	if _, err := PlanModes(sys, hopeless, taDemands(), 1.0); err == nil {
		t.Error("sub-minimum vtop accepted")
	}
}

func TestPlanModesEqualDemandsShareMode(t *testing.T) {
	sys := testPowerSystem()
	d := TaskDemand{Name: "a", Load: 5 * units.MilliWatt, Duration: 0.1}
	d2 := d
	d2.Name = "b"
	plan, err := PlanModes(sys, storage.EDLC, []TaskDemand{d, d2}, 2.4)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := planned(plan)["a"], planned(plan)["b"]
	if ma.Mask != mb.Mask {
		t.Fatalf("equal demands should share a mask: %#b vs %#b", ma.Mask, mb.Mask)
	}
	if len(plan.Banks) != 1 {
		t.Fatalf("equal demands should need one bank, got %d", len(plan.Banks))
	}
}

// Property: for random demand sets, the plan satisfies every demand and
// masks are prefix-nested in demand-energy order.
func TestPlanModesRandomDemandsProperty(t *testing.T) {
	sys := testPowerSystem()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(5)
		demands := make([]TaskDemand, n)
		for i := range demands {
			demands[i] = TaskDemand{
				Name:     string(rune('a' + i)),
				Load:     units.Power(1+rng.Float64()*29) * units.MilliWatt,
				Duration: units.Seconds(0.01 + rng.Float64()*0.8),
				Reactive: rng.Intn(2) == 0,
			}
		}
		plan, err := PlanModes(sys, storage.EDLC, demands, 2.4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, d := range demands {
			m, ok := planned(plan)[d.Name]
			if !ok {
				t.Fatalf("trial %d: missing mode %s", trial, d.Name)
			}
			trialBank := storage.MustBank("t", trialGroups(prefixBanks(plan, m.Mask))...)
			trialBank.SetVoltage(plan.VTop)
			if _, ok := sys.Discharge(trialBank, d.Load, d.Duration); !ok {
				t.Fatalf("trial %d: demand %s unsatisfied by planned mode", trial, d.Name)
			}
			// Masks are prefixes: mask+1 must be a power of two.
			if (m.Mask+1)&m.Mask != 0 {
				t.Fatalf("trial %d: non-prefix mask %#b", trial, m.Mask)
			}
		}
	}
}

// TestPlanModesEndToEnd uses a plan to build and run a real instance.
func TestPlanModesEndToEnd(t *testing.T) {
	sys := testPowerSystem()
	plan, err := PlanModes(sys, storage.EDLC, taDemands(), 2.4)
	if err != nil {
		t.Fatal(err)
	}
	var alarms int
	radio := device.CC2650()
	prog := task.MustProgram("sample",
		&task.Task{Name: "sample", PreburstBurst: "alarm", PreburstExec: "sample", Run: func(c *task.Ctx) task.Next {
			c.Sample(device.TMP36())
			if c.WordOr("rounds", 0) >= 2 {
				return "fire"
			}
			c.SetWord("rounds", c.WordOr("rounds", 0)+1)
			return "sample"
		}},
		&task.Task{Name: "fire", Burst: "alarm", Run: func(c *task.Ctx) task.Next {
			for i := 0; i < 3; i++ {
				c.Transmit(radio, 25)
			}
			alarms++
			return task.Halt
		}},
	)
	cfg := Config{
		Variant:    CapyP,
		Source:     sys.Source,
		MCU:        device.MSP430FR5969(),
		Base:       plan.Banks[0],
		Switched:   plan.Banks[1:],
		SwitchKind: 0,
		Modes:      plan.Modes,
	}
	inst, err := New(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(120); err != nil {
		t.Fatal(err)
	}
	if alarms == 0 {
		t.Fatal("planned platform never completed the alarm task")
	}
}
