package power

import (
	"math"
	"testing"
	"testing/quick"

	"capybara/internal/harvest"
	"capybara/internal/storage"
	"capybara/internal/units"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1e-30)
}

func testSystem(p units.Power, v units.Voltage) *System {
	return NewSystem(harvest.RegulatedSupply{Max: p, V: v})
}

func smallBank() *storage.Bank {
	return storage.MustBank("small",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad))
}

func bigBank() *storage.Bank {
	return storage.MustBank("big", storage.GroupOf(storage.EDLC, 9)) // 67.5 mF
}

func TestChargePowerPhases(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)

	// Above cold start: normal boosting at Efficiency.
	got := s.ChargePower(2.0, 0)
	want := units.Power(10e-3 * s.In.Efficiency)
	if !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("started phase power = %v, want %v", got, want)
	}

	// Below cold start with bypass: diode path loses only the drop.
	got = s.ChargePower(0.2, 0)
	want = units.Power(10e-3 * (1 - 0.3/3.0))
	if !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("bypass phase power = %v, want %v", got, want)
	}

	// Below cold start without bypass: trickle at ColdStartEfficiency.
	s.Bypass.Enabled = false
	got = s.ChargePower(0.2, 0)
	want = units.Power(10e-3 * s.In.ColdStartEfficiency)
	if !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("cold-start phase power = %v, want %v", got, want)
	}
}

func TestChargePowerDeadSource(t *testing.T) {
	s := testSystem(0, 3.0)
	if got := s.ChargePower(1.0, 0); got != 0 {
		t.Errorf("dead source charge power = %v", got)
	}
	// Harvester voltage below the booster's minimum: no charging.
	weak := testSystem(10*units.MilliWatt, 0.1)
	if got := weak.ChargePower(2.0, 0); got != 0 {
		t.Errorf("under-voltage source charge power = %v", got)
	}
}

func TestBypassSpeedsColdStart(t *testing.T) {
	// The paper: "the bypass optimization reduces charge time by at
	// least an order of magnitude."
	mk := func(bypass bool) units.Seconds {
		s := testSystem(10*units.MilliWatt, 3.0)
		s.Bypass.Enabled = bypass
		b := bigBank()
		dt, ok := s.TimeToChargeTo(b, 2.4, 0, 1e6)
		if !ok {
			t.Fatalf("charge did not complete (bypass=%v)", bypass)
		}
		return dt
	}
	with := mk(true)
	without := mk(false)
	if ratio := float64(without) / float64(with); ratio < 10 {
		t.Fatalf("bypass speedup = %.1fx (with %v, without %v), want ≥ 10x", ratio, with, without)
	}
}

func TestTimeToChargeToAlreadyCharged(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	b := smallBank()
	b.SetVoltage(2.5)
	dt, ok := s.TimeToChargeTo(b, 2.4, 0, 1000)
	if !ok || dt != 0 {
		t.Fatalf("already-charged: (%v, %v), want (0, true)", dt, ok)
	}
}

func TestTimeToChargeToTimesOut(t *testing.T) {
	s := testSystem(0, 3.0) // no input power
	b := smallBank()
	dt, ok := s.TimeToChargeTo(b, 2.4, 0, 100)
	if ok || dt != 100 {
		t.Fatalf("dead-source charge: (%v, %v), want (100, false)", dt, ok)
	}
}

func TestChargeTimeScalesWithCapacity(t *testing.T) {
	// Large banks take proportionally longer: the capacity/reactivity
	// trade-off at the heart of the paper (§2.1).
	s1 := testSystem(10*units.MilliWatt, 3.0)
	small := smallBank()
	dtSmall, ok1 := s1.TimeToChargeTo(small, 2.4, 0, 1e6)
	s2 := testSystem(10*units.MilliWatt, 3.0)
	big := bigBank()
	dtBig, ok2 := s2.TimeToChargeTo(big, 2.4, 0, 1e6)
	if !ok1 || !ok2 {
		t.Fatal("charging did not complete")
	}
	if dtBig < 50*dtSmall {
		t.Fatalf("big bank (%v) should charge much slower than small (%v)", dtBig, dtSmall)
	}
	// Sanity: the big bank's full charge is tens of seconds at 10 mW,
	// matching the paper's charge-time scale.
	if dtBig < 10 || dtBig > 300 {
		t.Fatalf("big bank charge time = %v, want tens of seconds", dtBig)
	}
}

// TestCutoffMemoKeepsRecurringLoads: once the cutoff memo is full, a
// miss evicts the oldest slot. Four one-off draws fill it; two draws
// that then alternate must both end up resident, not take turns in one
// slot, and a hit returns the solve's exact bits.
func TestCutoffMemoKeepsRecurringLoads(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	const esr = units.Resistance(40)
	for _, draw := range []units.Power{1e-3, 2e-3, 3e-3, 4e-3} {
		s.cutoff(esr, draw)
	}
	x, y := units.Power(5e-3), units.Power(7e-3)
	for i := 0; i < 4; i++ {
		s.cutoff(esr, x)
		s.cutoff(esr, y)
	}
	for _, draw := range []units.Power{x, y} {
		resident := false
		for i := 0; i < s.cutN; i++ {
			resident = resident || (s.cutEsr[i] == esr && s.cutDraw[i] == draw)
		}
		if !resident {
			t.Fatalf("recurring draw %v evicted: memo holds %v", draw, s.cutDraw[:s.cutN])
		}
		m := float64(s.Out.MinInput)
		want := (m + math.Sqrt(m*m+4*float64(draw)*float64(esr))) / 2
		if got := s.cutoff(esr, draw); math.Float64bits(float64(got)) != math.Float64bits(want) {
			t.Fatalf("draw %v: memo cutoff %v, want %v", draw, got, want)
		}
	}
}

func TestCutoffVoltageESR(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	// Zero ESR: cutoff is exactly MinInput.
	if got := s.CutoffVoltage(0, 10*units.MilliWatt); got != s.Out.MinInput {
		t.Errorf("zero-ESR cutoff = %v, want %v", got, s.Out.MinInput)
	}
	// High ESR raises the cutoff strictly.
	lo := s.CutoffVoltage(10, 10*units.MilliWatt)
	hi := s.CutoffVoltage(160, 10*units.MilliWatt)
	if !(hi > lo && lo > s.Out.MinInput) {
		t.Errorf("cutoff not increasing with ESR: %v, %v", lo, hi)
	}
	// Higher load power also raises the cutoff.
	light := s.CutoffVoltage(160, 1*units.MilliWatt)
	heavy := s.CutoffVoltage(160, 30*units.MilliWatt)
	if heavy <= light {
		t.Errorf("cutoff not increasing with load: %v, %v", light, heavy)
	}
}

func TestCutoffSolvesDroopEquation(t *testing.T) {
	f := func(esrRaw, pRaw uint16) bool {
		s := testSystem(10*units.MilliWatt, 3.0)
		esr := units.Resistance(float64(esrRaw) / math.MaxUint16 * 200)
		load := units.Power(float64(pRaw)/math.MaxUint16*50+0.1) * units.MilliWatt
		v := float64(s.CutoffVoltage(esr, load))
		p := float64(s.StoreDraw(load))
		// At the cutoff, V − (P/V)·ESR = MinInput.
		eff := v - p/v*float64(esr)
		return almostEqual(eff, float64(s.Out.MinInput), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDischargeBrownout(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	b := smallBank()
	b.SetVoltage(2.4)
	// A 30 mW radio burn for 10 s far exceeds the small bank.
	sustained, ok := s.Discharge(b, 30*units.MilliWatt, 10)
	if ok {
		t.Fatal("small bank should brown out under radio load")
	}
	if sustained <= 0 || sustained >= 10 {
		t.Fatalf("sustained = %v, want within (0, 10)", sustained)
	}
	cut := s.CutoffVoltage(b.ESR(), 30*units.MilliWatt)
	if !almostEqual(float64(b.Voltage()), float64(cut), 1e-9) {
		t.Fatalf("post-brownout voltage = %v, want cutoff %v", b.Voltage(), cut)
	}
	// Already below cutoff: no time sustained at all.
	sustained, ok = s.Discharge(b, 30*units.MilliWatt, 1)
	if ok || sustained != 0 {
		t.Fatalf("below-cutoff discharge = (%v, %v)", sustained, ok)
	}
}

func TestDischargeWithinBudget(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	b := bigBank()
	b.SetVoltage(2.4)
	sustained, ok := s.Discharge(b, 5*units.MilliWatt, 0.25)
	if !ok || sustained != 0.25 {
		t.Fatalf("discharge = (%v, %v), want (0.25, true)", sustained, ok)
	}
	if b.Voltage() >= 2.4 {
		t.Fatal("voltage did not drop")
	}
}

func TestOperatingTimeMatchesDischarge(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	b := bigBank()
	b.SetVoltage(2.4)
	op := s.OperatingTime(b, 5*units.MilliWatt)
	sustained, ok := s.Discharge(b, 5*units.MilliWatt, 1e9)
	if ok {
		t.Fatal("unbounded discharge should brown out")
	}
	if !almostEqual(float64(op), float64(sustained), 1e-9) {
		t.Fatalf("OperatingTime %v != sustained %v", op, sustained)
	}
}

func TestExtractableEnergyESRPenalty(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	// Same capacitance, different ESR: one CPH3225A vs four in
	// parallel scaled down — model directly with two banks.
	highESR := storage.MustBank("1x", storage.GroupOf(storage.SupercapCPH3225A, 1))
	lowESR := storage.MustBank("4x", storage.GroupOf(storage.SupercapCPH3225A, 4))
	highESR.SetVoltage(3.3)
	lowESR.SetVoltage(3.3)
	perCapHigh := float64(s.ExtractableEnergy(highESR, 10*units.MilliWatt))
	perCapLow := float64(s.ExtractableEnergy(lowESR, 10*units.MilliWatt)) / 4
	if perCapLow <= perCapHigh {
		t.Fatalf("parallel (low-ESR) extraction per cap %v should beat single %v", perCapLow, perCapHigh)
	}
}

func TestCanSupply(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	b := smallBank()
	b.SetVoltage(2.4)
	if !s.CanSupply(b, 1*units.MilliWatt) {
		t.Fatal("charged bank should supply a light load")
	}
	b.SetVoltage(1.0)
	if s.CanSupply(b, 1*units.MilliWatt) {
		t.Fatal("bank below MinInput cannot supply")
	}
}

func TestStoreDrawIncludesOverheads(t *testing.T) {
	s := testSystem(10*units.MilliWatt, 3.0)
	got := s.StoreDraw(8 * units.MilliWatt)
	want := units.Power(8e-3/s.Out.Efficiency) + s.Out.Quiescent
	if !almostEqual(float64(got), float64(want), 1e-12) {
		t.Fatalf("StoreDraw = %v, want %v", got, want)
	}
}

func TestSystemStringer(t *testing.T) {
	if s := testSystem(10*units.MilliWatt, 3.0).String(); s == "" {
		t.Fatal("empty stringer")
	}
}
