package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1e-30)
}

func TestStoredEnergy(t *testing.T) {
	// 100 µF at 3.3 V holds ½·1e-4·3.3² = 544.5 µJ.
	got := StoredEnergy(100*MicroFarad, 3.3)
	if !almostEqual(float64(got), 544.5e-6, 1e-12) {
		t.Fatalf("StoredEnergy = %v, want 544.5 µJ", got)
	}
}

func TestBandEnergy(t *testing.T) {
	tests := []struct {
		name     string
		c        Capacitance
		top, bot Voltage
		want     Energy
	}{
		{"full band", 1 * MilliFarad, 2.4, 0, Energy(0.5 * 1e-3 * 2.4 * 2.4)},
		{"partial band", 1 * MilliFarad, 2.4, 1.8, Energy(0.5 * 1e-3 * (2.4*2.4 - 1.8*1.8))},
		{"inverted band", 1 * MilliFarad, 1.8, 2.4, 0},
		{"degenerate band", 1 * MilliFarad, 2.0, 2.0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := BandEnergy(tt.c, tt.top, tt.bot)
			if !almostEqual(float64(got), float64(tt.want), 1e-12) {
				t.Fatalf("BandEnergy(%v,%v,%v) = %v, want %v", tt.c, tt.top, tt.bot, got, tt.want)
			}
		})
	}
}

func TestVoltageForEnergyRoundTrip(t *testing.T) {
	f := func(cMicro, vRaw uint16) bool {
		c := Capacitance(float64(cMicro)+1) * MicroFarad
		v := Voltage(float64(vRaw)/float64(math.MaxUint16)*5 + 0.01)
		e := StoredEnergy(c, v)
		back := VoltageForEnergy(c, e)
		return almostEqual(float64(back), float64(v), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVoltageForEnergyEdgeCases(t *testing.T) {
	if got := VoltageForEnergy(0, 1); got != 0 {
		t.Errorf("zero capacitance: got %v, want 0", got)
	}
	if got := VoltageForEnergy(1*MicroFarad, -1); got != 0 {
		t.Errorf("negative energy: got %v, want 0", got)
	}
}

func TestChargeDischargeInverse(t *testing.T) {
	// Charging for dt then discharging at the same power for dt must
	// return to the starting voltage (the model is loss-free at this
	// layer; converters add losses above it).
	f := func(cMicro, pMicro, dtMilli uint16) bool {
		c := Capacitance(float64(cMicro)+1) * MicroFarad
		p := Power(float64(pMicro)+1) * MicroWatt
		dt := Seconds(float64(dtMilli)+1) * Millisecond
		v0 := Voltage(1.0)
		up := ChargeVoltageAfter(c, v0, p, dt)
		down := DischargeVoltageAfter(c, up, p, dt)
		return almostEqual(float64(down), float64(v0), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeToChargeMatchesChargeVoltageAfter(t *testing.T) {
	f := func(cMicro, pMicro uint16, vTopRaw uint8) bool {
		c := Capacitance(float64(cMicro)+10) * MicroFarad
		p := Power(float64(pMicro)+10) * MicroWatt
		v0 := Voltage(0.5)
		v1 := v0 + Voltage(float64(vTopRaw)/255*3+0.01)
		dt := TimeToCharge(c, v0, v1, p)
		reached := ChargeVoltageAfter(c, v0, p, dt)
		return almostEqual(float64(reached), float64(v1), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeToChargeDegenerate(t *testing.T) {
	if got := TimeToCharge(1*MilliFarad, 2.0, 1.0, 1*MilliWatt); got != 0 {
		t.Errorf("already charged: got %v, want 0", got)
	}
	if got := TimeToCharge(1*MilliFarad, 1.0, 2.0, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("no input power: got %v, want +Inf", got)
	}
}

func TestTimeToDischargeMatchesAnalytic(t *testing.T) {
	c := 10 * MilliFarad
	p := 5 * MilliWatt
	dt := TimeToDischarge(c, 3.0, 1.8, p)
	// E = ½·0.01·(9−3.24) = 28.8 mJ; t = E/P = 5.76 s.
	if !almostEqual(float64(dt), 5.76, 1e-12) {
		t.Fatalf("TimeToDischarge = %v, want 5.76 s", dt)
	}
	if got := TimeToDischarge(c, 1.0, 2.0, p); got != 0 {
		t.Errorf("below target: got %v, want 0", got)
	}
	if got := TimeToDischarge(c, 2.0, 1.0, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("no load: got %v, want +Inf", got)
	}
}

func TestLeakage(t *testing.T) {
	// After one RC time constant the voltage is V0/e.
	c := 4.7 * MicroFarad
	r := Resistance(10e6)
	rc := Seconds(float64(r) * float64(c))
	got := LeakVoltageAfter(c, 3.0, r, rc)
	if !almostEqual(float64(got), 3.0/math.E, 1e-9) {
		t.Fatalf("LeakVoltageAfter(RC) = %v, want %v", got, 3.0/math.E)
	}
	// Ideal capacitor never leaks.
	if got := LeakVoltageAfter(c, 3.0, 0, 1e9); got != 3.0 {
		t.Errorf("ideal capacitor leaked: %v", got)
	}
}

func TestTimeToLeakToRoundTrip(t *testing.T) {
	f := func(frac uint8) bool {
		c := 4.7 * MicroFarad
		r := Resistance(50e6)
		v0 := Voltage(3.0)
		v1 := Voltage(float64(frac)/256*2.9 + 0.05)
		dt := TimeToLeakTo(c, v0, v1, r)
		back := LeakVoltageAfter(c, v0, r, dt)
		return almostEqual(float64(back), float64(v1), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := TimeToLeakTo(1*MicroFarad, 1.0, 2.0, KiloOhm); got != 0 {
		t.Errorf("leak upward: got %v, want 0", got)
	}
	if got := TimeToLeakTo(1*MicroFarad, 2.0, 1.0, 0); !math.IsInf(float64(got), 1) {
		t.Errorf("ideal capacitor leak time: got %v, want +Inf", got)
	}
}

func TestChargeCurveMonotonic(t *testing.T) {
	c := 67.5 * MilliFarad
	p := 10 * MilliWatt
	prev := Voltage(0)
	for i := 1; i <= 1000; i++ {
		v := ChargeVoltageAfter(c, 0, p, Seconds(i)*0.1)
		if v <= prev {
			t.Fatalf("charge curve not strictly increasing at step %d: %v <= %v", i, v, prev)
		}
		prev = v
	}
}

func TestStringFormats(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{(67.5 * MilliFarad).String(), "67.5 mF"},
		{Voltage(2.4).String(), "2.4 V"},
		{(10 * MilliWatt).String(), "10 mW"},
		{(330 * MicroFarad).String(), "330 µF"},
		{Capacitance(0).String(), "0 F"},
		{Seconds(0.0000005).String(), "0.5 µs"},
		{Seconds(0.25).String(), "250.0 ms"},
		{Seconds(64).String(), "64.00 s"},
		{Seconds(220).String(), "220 s"},
		{Volume(7.2).String(), "7.2 mm³"},
		{Area(80).String(), "80.0 mm²"},
		{Resistance(160).String(), "160 Ω"},
		{(30 * MilliAmp).String(), "30 mA"},
		{(544.5 * MicroJoule).String(), "544 µJ"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}

// TestAnalyticVsNumericalCharge cross-checks the closed-form constant-
// power charge solution against explicit Euler integration of
// dV/dt = P/(C·V).
func TestAnalyticVsNumericalCharge(t *testing.T) {
	c := 7.5 * MilliFarad
	p := 3 * MilliWatt
	v := 0.5 // start above 0 to avoid the dV/dt singularity
	const dt = 1e-4
	total := Seconds(0)
	for i := 0; i < 200000; i++ {
		v += float64(p) / (float64(c) * v) * dt
		total += dt
	}
	analytic := ChargeVoltageAfter(c, 0.5, p, total)
	if !almostEqual(v, float64(analytic), 1e-3) {
		t.Fatalf("numerical %v vs analytic %v diverged", v, analytic)
	}
}

// TestAnalyticVsNumericalLeak cross-checks exponential decay against
// Euler integration of dV/dt = −V/(RC).
func TestAnalyticVsNumericalLeak(t *testing.T) {
	c := 4.7 * MicroFarad
	r := Resistance(10e6)
	v := 3.0
	const dt = 1e-3
	total := Seconds(0)
	for i := 0; i < 50000; i++ {
		v -= v / (float64(r) * float64(c)) * dt
		total += dt
	}
	analytic := LeakVoltageAfter(c, 3.0, r, total)
	if !almostEqual(v, float64(analytic), 1e-3) {
		t.Fatalf("numerical %v vs analytic %v diverged", v, analytic)
	}
}
