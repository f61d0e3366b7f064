package storage

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

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

func TestGroupCapacitanceESR(t *testing.T) {
	g := GroupOf(SupercapCPH3225A, 4)
	if got, want := g.Capacitance(), 44*units.MilliFarad; !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("Capacitance = %v, want %v", got, want)
	}
	if got, want := g.ESR(), units.Resistance(40); !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("ESR = %v, want %v (160 Ω / 4 in parallel)", got, want)
	}
	if got, want := g.Volume(), units.Volume(28.8); !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("Volume = %v, want %v", got, want)
	}
}

func TestGroupEmpty(t *testing.T) {
	g := GroupOf(CeramicX5R, 0)
	if g.Capacitance() != 0 {
		t.Errorf("empty group capacitance = %v", g.Capacitance())
	}
	if !math.IsInf(float64(g.ESR()), 1) {
		t.Errorf("empty group ESR = %v, want +Inf", g.ESR())
	}
	if g.LeakResistance() != 0 {
		t.Errorf("empty group leak = %v", g.LeakResistance())
	}
}

func TestGroupFor(t *testing.T) {
	// 400 µF of 22 µF ceramics needs ⌈400/22⌉ = 19 units.
	g := GroupFor(CeramicX5R, 400*units.MicroFarad)
	if g.Count != 19 {
		t.Fatalf("GroupFor count = %d, want 19", g.Count)
	}
	if g.Capacitance() < 400*units.MicroFarad {
		t.Fatalf("GroupFor under-provisions: %v", g.Capacitance())
	}
	if g := GroupFor(CeramicX5R, 0); g.Count != 0 {
		t.Errorf("GroupFor(0) count = %d", g.Count)
	}
}

func TestNewBankRejectsEmpty(t *testing.T) {
	if _, err := NewBank("empty"); err == nil {
		t.Fatal("NewBank with no groups should fail")
	}
	if _, err := NewBank("zero", GroupOf(Tantalum, 0)); err == nil {
		t.Fatal("NewBank with zero-count group should fail")
	}
}

func TestBankMixedComposition(t *testing.T) {
	// The paper's TA fixed bank: 300 µF ceramic + 1100 µF tantalum + 7.5 mF EDLC.
	b := MustBank("ta-fixed",
		GroupFor(CeramicX5R, 300*units.MicroFarad),
		GroupFor(Tantalum, 1100*units.MicroFarad),
		GroupOf(EDLC, 1),
	)
	c := b.Capacitance()
	if c < 8.9*units.MilliFarad || c > 9.3*units.MilliFarad {
		t.Fatalf("mixed bank capacitance = %v, want ≈8.9 mF", c)
	}
	// Rated voltage is the minimum across groups (EDLC's 3.6 V).
	if got := b.RatedVoltage(); got != 3.6 {
		t.Fatalf("RatedVoltage = %v, want 3.6 V", got)
	}
	// ESR is dominated by the low-ESR ceramics in parallel.
	if got := b.ESR(); got >= 0.01 {
		t.Fatalf("ESR = %v, want < 10 mΩ", got)
	}
}

func TestBankChargeClampsAtRated(t *testing.T) {
	b := MustBank("sc", GroupOf(SupercapCPH3225A, 1))
	b.Charge(1*units.MilliWatt, 1e9)
	if got := b.Voltage(); got != SupercapCPH3225A.RatedVoltage {
		t.Fatalf("overcharged to %v, want clamp at %v", got, SupercapCPH3225A.RatedVoltage)
	}
}

func TestConnectChargeSharing(t *testing.T) {
	a := MustBank("a", GroupFor(CeramicX5R, 100*units.MicroFarad))
	b := MustBank("b", GroupFor(CeramicX5R, 100*units.MicroFarad))
	// GroupFor rounds up; use actual capacitances in the expectation.
	a.SetVoltage(3.0)
	b.SetVoltage(1.0)
	loss := Connect(a, b)
	ca, cb := float64(a.Capacitance()), float64(b.Capacitance())
	wantV := (ca*3.0 + cb*1.0) / (ca + cb)
	if !almostEqual(float64(a.Voltage()), wantV, 1e-12) || a.Voltage() != b.Voltage() {
		t.Fatalf("voltages after connect: %v, %v, want both %v", a.Voltage(), b.Voltage(), wantV)
	}
	if loss <= 0 {
		t.Fatalf("connecting banks at different voltages must dissipate energy, got %v", loss)
	}
}

func TestConnectEqualVoltagesLossless(t *testing.T) {
	a := MustBank("a", GroupOf(Tantalum, 1))
	b := MustBank("b", GroupOf(EDLC, 1))
	a.SetVoltage(2.2)
	b.SetVoltage(2.2)
	loss := Connect(a, b)
	if !almostEqual(float64(loss), 0, 1e-15) {
		t.Fatalf("equal-voltage connect lost %v", loss)
	}
	if a.Voltage() != 2.2 || b.Voltage() != 2.2 {
		t.Fatalf("voltages moved: %v, %v", a.Voltage(), b.Voltage())
	}
}

// Property: charge sharing conserves charge and never creates energy.
func TestConnectConservesChargeProperty(t *testing.T) {
	f := func(na, nb uint8, va, vb uint16) bool {
		a := MustBank("a", GroupOf(CeramicX5R, int(na%20)+1))
		b := MustBank("b", GroupOf(EDLC, int(nb%5)+1))
		a.SetVoltage(units.Voltage(float64(va) / math.MaxUint16 * 3))
		b.SetVoltage(units.Voltage(float64(vb) / math.MaxUint16 * 3))
		qBefore := float64(a.Capacitance())*float64(a.Voltage()) + float64(b.Capacitance())*float64(b.Voltage())
		eBefore := a.Energy() + b.Energy()
		loss := Connect(a, b)
		qAfter := float64(a.Capacitance())*float64(a.Voltage()) + float64(b.Capacitance())*float64(b.Voltage())
		eAfter := a.Energy() + b.Energy()
		return almostEqual(qBefore, qAfter, 1e-9) &&
			loss >= 0 &&
			almostEqual(float64(eBefore), float64(eAfter+loss), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBankLeak(t *testing.T) {
	b := MustBank("sc", GroupOf(SupercapCPH3225A, 1))
	b.SetVoltage(3.0)
	b.Leak(units.Seconds(1000))
	want := units.LeakVoltageAfter(SupercapCPH3225A.UnitCap, 3.0, SupercapCPH3225A.UnitLeak, 1000)
	if !almostEqual(float64(b.Voltage()), float64(want), 1e-12) {
		t.Fatalf("leaked voltage = %v, want %v", b.Voltage(), want)
	}
	// Ceramic bank: negligible leak is modeled as none.
	c := MustBank("cer", GroupOf(CeramicX5R, 5))
	c.SetVoltage(3.0)
	c.Leak(1e9)
	if c.Voltage() != 3.0 {
		t.Fatalf("ceramic bank leaked: %v", c.Voltage())
	}
}

// TestLeakMemoKeepsRecurringSpans: once the decay-factor memo is full,
// a miss evicts the oldest slot. Four one-off spans fill it; two spans
// that then alternate must both end up resident, not take turns in one
// slot, and a hit returns the exponential's exact bits.
func TestLeakMemoKeepsRecurringSpans(t *testing.T) {
	b := MustBank("sc", GroupOf(SupercapCPH3225A, 1))
	for _, dt := range []units.Seconds{0.1, 0.2, 0.3, 0.4} {
		b.leakFactor(dt)
	}
	x, y := units.Seconds(1.5), units.Seconds(2.5)
	for i := 0; i < 4; i++ {
		b.leakFactor(x)
		b.leakFactor(y)
	}
	for _, dt := range []units.Seconds{x, y} {
		resident := false
		for i := 0; i < b.leakN; i++ {
			resident = resident || b.leakDt[i] == dt
		}
		if !resident {
			t.Fatalf("recurring span %v evicted: memo holds %v", dt, b.leakDt[:b.leakN])
		}
		want := math.Exp(-float64(dt) / (float64(b.leakR) * float64(b.cap)))
		if got := b.leakFactor(dt); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("span %v: memo factor %v, want %v", dt, got, want)
		}
	}
}

func TestTechnologyDensityOrdering(t *testing.T) {
	// The paper's Fig. 4 observation: supercap density far exceeds
	// ceramic density; tantalum sits between. Density is capacitance
	// per unit volume, in F/mm³.
	density := func(t Technology) float64 { return float64(t.UnitCap) / float64(t.UnitVolume) }
	cer, tan, sc := density(CeramicX5R), density(Tantalum), density(SupercapCPH3225A)
	if !(sc > tan && tan > cer) {
		t.Fatalf("density ordering violated: ceramic=%g tantalum=%g supercap=%g", cer, tan, sc)
	}
	if sc/cer < 100 {
		t.Fatalf("supercap should be orders of magnitude denser than ceramic: ratio %g", sc/cer)
	}
}

func TestTechnologyByName(t *testing.T) {
	got, err := TechnologyByName("EDLC")
	if err != nil || got.Name != "EDLC" {
		t.Fatalf("TechnologyByName(EDLC) = %v, %v", got, err)
	}
	if _, err := TechnologyByName("unobtainium"); err == nil {
		t.Fatal("unknown technology should error")
	}
}

func TestCombinedCapacitanceESR(t *testing.T) {
	a := MustBank("a", GroupOf(SupercapCPH3225A, 1)) // 160 Ω
	b := MustBank("b", GroupOf(SupercapCPH3225A, 1)) // 160 Ω
	banks := []*Bank{a, b}
	if got, want := CombinedCapacitance(banks), 22*units.MilliFarad; !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("CombinedCapacitance = %v, want %v", got, want)
	}
	if got, want := CombinedESR(banks), units.Resistance(80); !almostEqual(float64(got), float64(want), 1e-12) {
		t.Errorf("CombinedESR = %v, want %v", got, want)
	}
	if got := CombinedESR(nil); got != 0 {
		t.Errorf("CombinedESR(nil) = %v, want 0", got)
	}
}

func TestBankStringer(t *testing.T) {
	b := MustBank("small", GroupFor(CeramicX5R, 400*units.MicroFarad))
	s := b.String()
	if s == "" || b.Name() != "small" {
		t.Fatalf("String/Name broken: %q", s)
	}
}

func TestAtTemperatureDerating(t *testing.T) {
	cold, err := EDLC.AtTemperature(-20)
	if err != nil {
		t.Fatal(err)
	}
	// Capacitance shrinks in the cold…
	if cold.UnitCap >= EDLC.UnitCap {
		t.Fatalf("cold capacitance %v not below %v", cold.UnitCap, EDLC.UnitCap)
	}
	// …and ESR grows.
	if cold.UnitESR <= EDLC.UnitESR {
		t.Fatalf("cold ESR %v not above %v", cold.UnitESR, EDLC.UnitESR)
	}
	if cold.Name == EDLC.Name {
		t.Fatal("derated technology should carry the temperature in its name")
	}
	// At the reference temperature nothing changes.
	same, err := EDLC.AtTemperature(25)
	if err != nil {
		t.Fatal(err)
	}
	if same.UnitCap != EDLC.UnitCap || same.UnitESR != EDLC.UnitESR {
		t.Fatalf("reference temperature changed the part: %v", same)
	}
}

func TestAtTemperatureDisqualifies(t *testing.T) {
	if _, err := EDLC.AtTemperature(-40); !errors.Is(err, ErrTooCold) {
		t.Fatalf("EDLC at -40°C: err = %v, want ErrTooCold", err)
	}
	if _, err := ThinFilmBattery.AtTemperature(-40); !errors.Is(err, ErrTooCold) {
		t.Fatalf("battery at -40°C: err = %v, want ErrTooCold", err)
	}
	if _, err := SupercapCPH3225A.AtTemperature(-40); err != nil {
		t.Fatalf("CPH3225A should qualify at its floor: %v", err)
	}
}

func TestAtTemperatureCapacitanceFloor(t *testing.T) {
	// Extreme (hypothetical) coefficients must not drive capacitance
	// negative.
	hot := Technology{Name: "x", UnitCap: units.MicroFarad, UnitVolume: 1,
		CapTempCoeff: 1, MinTemperature: -100}
	out, err := hot.AtTemperature(-99)
	if err != nil {
		t.Fatal(err)
	}
	if out.UnitCap <= 0 {
		t.Fatalf("capacitance collapsed: %v", out.UnitCap)
	}
}

func TestBankGroupsAndVolume(t *testing.T) {
	b := MustBank("b", GroupOf(Tantalum, 2), GroupOf(EDLC, 1))
	groups := b.Groups()
	if len(groups) != 2 || groups[0].Count != 2 {
		t.Fatalf("Groups = %+v", groups)
	}
	// The copy is isolated from the bank.
	groups[0].Count = 99
	if b.Groups()[0].Count != 2 {
		t.Fatal("Groups() must return a copy")
	}
	want := 2*Tantalum.UnitVolume + EDLC.UnitVolume
	if got := b.Volume(); got != want {
		t.Fatalf("Volume = %v, want %v", got, want)
	}
}

func TestTechnologyStringers(t *testing.T) {
	for _, tech := range Catalog() {
		if tech.String() == "" || tech.UnitCap <= 0 || tech.UnitVolume <= 0 {
			t.Errorf("technology %s stringer, capacitance or volume broken", tech.Name)
		}
	}
}
