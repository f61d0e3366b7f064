package harvest

import (
	"math"
	"testing"
	"testing/quick"

	"capybara/internal/units"
)

func TestRegulatedSupply(t *testing.T) {
	s := RegulatedSupply{Max: 10 * units.MilliWatt, V: 3.0}
	for _, tt := range []units.Seconds{0, 1, 1e6} {
		if s.PowerAt(tt) != 10*units.MilliWatt {
			t.Fatalf("PowerAt(%v) = %v", tt, s.PowerAt(tt))
		}
		if s.VoltageAt(tt) != 3.0 {
			t.Fatalf("VoltageAt(%v) = %v", tt, s.VoltageAt(tt))
		}
	}
}

func TestConstantTraceClamps(t *testing.T) {
	if got := ConstantTrace(2.0).Level(5); got != 1 {
		t.Errorf("over-range trace = %g", got)
	}
	if got := ConstantTrace(-1).Level(5); got != 0 {
		t.Errorf("negative trace = %g", got)
	}
}

func TestPWMTrace(t *testing.T) {
	tr := PWMTrace(0.42, 1.0)
	// Inside the on-phase.
	if got := tr.Level(0.1); got != 1 {
		t.Errorf("PWM on-phase = %g", got)
	}
	// Inside the off-phase.
	if got := tr.Level(0.9); got != 0 {
		t.Errorf("PWM off-phase = %g", got)
	}
	// Long-term average equals the duty cycle.
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += tr.Level(units.Seconds(float64(i) * 0.001))
	}
	if avg := sum / n; math.Abs(avg-0.42) > 0.01 {
		t.Errorf("PWM average = %g, want 0.42", avg)
	}
	// Degenerate period falls back to a constant.
	if got := PWMTrace(0.42, 0).Level(123); got != 0.42 {
		t.Errorf("degenerate PWM = %g", got)
	}
}

func TestDiurnalTrace(t *testing.T) {
	tr := DiurnalTrace(units.Hour)
	if got := tr.Level(units.Hour / 4); math.Abs(got-1) > 1e-9 {
		t.Errorf("noon = %g, want 1", got)
	}
	if got := tr.Level(3 * units.Hour / 4); got != 0 {
		t.Errorf("night = %g, want 0", got)
	}
	if got := DiurnalTrace(0).Level(1); got != 0 {
		t.Errorf("degenerate diurnal = %g", got)
	}
}

func TestBlackoutTrace(t *testing.T) {
	tr := BlackoutTrace(ConstantTrace(1), [2]units.Seconds{10, 5})
	if got := tr.Level(9.9); got != 1 {
		t.Errorf("before blackout = %g", got)
	}
	if got := tr.Level(12); got != 0 {
		t.Errorf("during blackout = %g", got)
	}
	if got := tr.Level(15); got != 1 {
		t.Errorf("after blackout = %g (window end is exclusive)", got)
	}
}

func TestSolarPanelScaling(t *testing.T) {
	one := SolarPanel{PeakPower: 5 * units.MilliWatt, OpenCircuitVoltage: 1.5}
	two := SolarPanel{PeakPower: 5 * units.MilliWatt, OpenCircuitVoltage: 1.5, Series: 2}
	if got := one.PowerAt(0); got != 5*units.MilliWatt {
		t.Errorf("single panel power = %v", got)
	}
	if got := two.PowerAt(0); got != 10*units.MilliWatt {
		t.Errorf("series pair power = %v", got)
	}
	if got := two.VoltageAt(0); got != 3.0 {
		t.Errorf("series pair voltage = %v, want 3.0", got)
	}
	quad := SolarPanel{PeakPower: 5 * units.MilliWatt, OpenCircuitVoltage: 1.5, Series: 2, Parallel: 2}
	if got := quad.PowerAt(0); got != 20*units.MilliWatt {
		t.Errorf("2S2P power = %v", got)
	}
	if got := quad.VoltageAt(0); got != 3.0 {
		t.Errorf("2S2P voltage = %v (parallel must not add voltage)", got)
	}
}

func TestSolarPanelDimming(t *testing.T) {
	p := SolarPanel{PeakPower: 10 * units.MilliWatt, OpenCircuitVoltage: 2.0, Light: ConstantTrace(0.25)}
	if got := p.PowerAt(0); got != 2.5*units.MilliWatt {
		t.Errorf("dim power = %v, want 2.5 mW", got)
	}
	// Voltage sags as sqrt(level): 2.0 * 0.5 = 1.0.
	if got := p.VoltageAt(0); math.Abs(float64(got)-1.0) > 1e-12 {
		t.Errorf("dim voltage = %v, want 1.0", got)
	}
	dark := SolarPanel{PeakPower: 10 * units.MilliWatt, OpenCircuitVoltage: 2.0, Light: ConstantTrace(0)}
	if dark.PowerAt(0) != 0 || dark.VoltageAt(0) != 0 {
		t.Errorf("dark panel produced output: %v, %v", dark.PowerAt(0), dark.VoltageAt(0))
	}
}

func TestRFHarvester(t *testing.T) {
	r := RFHarvester{TransmitPower: 3, Distance: 2, Efficiency: 0.5, V: 1.2}
	want := 3 * 0.5 / (4 * math.Pi * 4)
	if got := r.PowerAt(0); math.Abs(float64(got)-want) > 1e-12 {
		t.Errorf("RF power = %v, want %g", got, want)
	}
	if got := (RFHarvester{TransmitPower: 3}).PowerAt(0); got != 0 {
		t.Errorf("zero-distance RF power = %v", got)
	}
	// Power falls off with distance squared.
	near := RFHarvester{TransmitPower: 3, Distance: 1, Efficiency: 0.5}
	far := RFHarvester{TransmitPower: 3, Distance: 10, Efficiency: 0.5}
	if ratio := float64(near.PowerAt(0)) / float64(far.PowerAt(0)); math.Abs(ratio-100) > 1e-6 {
		t.Errorf("inverse-square ratio = %g, want 100", ratio)
	}
}

func TestLimiterClamps(t *testing.T) {
	// Series panels in bright light exceed the rating; the limiter
	// clamps voltage and sheds the proportional power.
	src := SolarPanel{PeakPower: 10 * units.MilliWatt, OpenCircuitVoltage: 3.0, Series: 3}
	lim := Limiter{Source: src, Max: 5.5}
	if got := lim.VoltageAt(0); got != 5.5 {
		t.Errorf("limited voltage = %v, want 5.5", got)
	}
	wantP := 30e-3 * 5.5 / 9.0
	if got := lim.PowerAt(0); math.Abs(float64(got)-wantP) > 1e-12 {
		t.Errorf("limited power = %v, want %g", got, wantP)
	}
	// Below the limit the limiter is transparent.
	dim := Limiter{Source: SolarPanel{PeakPower: 10 * units.MilliWatt, OpenCircuitVoltage: 2.0}, Max: 5.5}
	if dim.VoltageAt(0) != 2.0 || dim.PowerAt(0) != 10*units.MilliWatt {
		t.Errorf("limiter not transparent below Max: %v %v", dim.VoltageAt(0), dim.PowerAt(0))
	}
}

func TestLimiterNeverExceedsMaxProperty(t *testing.T) {
	f := func(series uint8, voc uint16, tRaw uint16) bool {
		src := SolarPanel{
			PeakPower:          10 * units.MilliWatt,
			OpenCircuitVoltage: units.Voltage(float64(voc)/math.MaxUint16*5 + 0.1),
			Series:             int(series%8) + 1,
			Light:              DiurnalTrace(3600),
		}
		lim := Limiter{Source: src, Max: 5.5}
		tt := units.Seconds(float64(tRaw))
		return lim.VoltageAt(tt) <= 5.5 && lim.PowerAt(tt) <= src.PowerAt(tt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAveragePower(t *testing.T) {
	p := SolarPanel{PeakPower: 10 * units.MilliWatt, OpenCircuitVoltage: 2.0, Light: PWMTrace(0.5, 1)}
	avg := AveragePower(p, 100, 10000)
	if math.Abs(float64(avg)-5e-3) > 2e-4 {
		t.Errorf("average power = %v, want ≈5 mW", avg)
	}
	// Degenerate sampling falls back to instantaneous power.
	if got := AveragePower(p, 0, 0); got != p.PowerAt(0) {
		t.Errorf("degenerate average = %v", got)
	}
}

func TestSourceStringers(t *testing.T) {
	if s := (RegulatedSupply{Max: 10 * units.MilliWatt, V: 3}).String(); s == "" {
		t.Error("RegulatedSupply stringer empty")
	}
	if s := (SolarPanel{PeakPower: units.MilliWatt, OpenCircuitVoltage: 1.5}).String(); s == "" {
		t.Error("SolarPanel stringer empty")
	}
}

func TestRFHarvesterVoltage(t *testing.T) {
	r := RFHarvester{TransmitPower: 3, Distance: 2, Efficiency: 0.5, V: 1.2}
	if got := r.VoltageAt(0); got != 1.2 {
		t.Fatalf("VoltageAt = %v", got)
	}
	// A bad efficiency falls back to a sane default.
	weird := RFHarvester{TransmitPower: 3, Distance: 1, Efficiency: 2}
	if got := weird.PowerAt(0); got <= 0 {
		t.Fatalf("fallback efficiency power = %v", got)
	}
}

// TestFastMod pins the fast periodic-phase reduction against math.Mod
// over the domain the traces use (non-negative times, positive
// periods): the result must stay in [0, period) and agree with the
// reference to within one quotient correction.
func TestFastMod(t *testing.T) {
	check := func(x, y float64) {
		t.Helper()
		got := fastMod(x, y)
		if got < 0 || got >= y {
			t.Fatalf("fastMod(%g, %g) = %g out of [0, %g)", x, y, got, y)
		}
		want := math.Mod(x, y)
		if want < 0 {
			want += y
		}
		if got != want {
			t.Fatalf("fastMod(%g, %g) = %g, math.Mod says %g", x, y, got, want)
		}
	}
	// Edge instants: exact multiples, just-below multiples, zero.
	for _, y := range []float64{1, 8, 86400, 0.125, 3.7} {
		check(0, y)
		for k := 1.0; k <= 4; k++ {
			check(k*y, y)
			check(math.Nextafter(k*y, 0), y)
			check(math.Nextafter(k*y, math.Inf(1)), y)
		}
	}
	prop := func(rawX, rawY uint32) bool {
		x := float64(rawX) / 16            // up to ~3 days of sim time
		y := 0.01 + float64(rawY%8000)/100 // periods 0.01..80 s
		got := fastMod(x, y)
		want := math.Mod(x, y)
		if want < 0 {
			want += y
		}
		return got == want && got >= 0 && got < y
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200000}); err != nil {
		t.Fatal(err)
	}
}
