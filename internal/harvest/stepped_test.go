package harvest

import (
	"math"
	"testing"
	"testing/quick"

	"capybara/internal/units"
)

func TestNextChangeConstantSources(t *testing.T) {
	for _, src := range []Source{
		RegulatedSupply{Max: 10 * units.MilliWatt, V: 3.0},
		RFHarvester{TransmitPower: 3, Distance: 2, Efficiency: 0.5, V: 1.2},
		SolarPanel{PeakPower: units.MilliWatt, OpenCircuitVoltage: 1.5},
		PVPanel{ShortCircuitCurrent: 30 * units.MilliAmp, OpenCircuitVoltage: 1.5},
	} {
		if h := NextChange(src, 17); !math.IsInf(float64(h), 1) {
			t.Errorf("%T horizon = %v, want Forever", src, h)
		}
	}
}

func TestNextChangeOpaque(t *testing.T) {
	// A bare TraceFunc gives the solver no horizon: callers must fall
	// back to fixed-step integration.
	opaque := SolarPanel{PeakPower: units.MilliWatt, OpenCircuitVoltage: 1.5,
		Light: TraceFunc(func(t units.Seconds) float64 { return 0.5 })}
	if h := NextChange(opaque, 0); h != 0 {
		t.Fatalf("opaque trace horizon = %v, want 0", h)
	}
	// Non-Stepped values are conservatively opaque too.
	if h := NextChange(struct{}{}, 0); h != 0 {
		t.Fatalf("non-Stepped horizon = %v, want 0", h)
	}
}

func TestNextChangePWM(t *testing.T) {
	tr := PWMTrace(0.42, 1.0)
	if h := NextChange(tr, 0.1); math.Abs(float64(h)-0.32) > 1e-9 {
		t.Errorf("on-phase horizon = %v, want 0.32", h)
	}
	if h := NextChange(tr, 0.9); math.Abs(float64(h)-0.1) > 1e-9 {
		t.Errorf("off-phase horizon = %v, want 0.1", h)
	}
	// Exactly on an edge the horizon must still be positive.
	if h := NextChange(tr, 0.42); h <= 0 {
		t.Errorf("edge horizon = %v, want > 0", h)
	}
}

func TestNextChangeDiurnal(t *testing.T) {
	tr := DiurnalTrace(3600)
	// Daytime: sinusoid varies continuously, horizon unknown.
	if h := NextChange(tr, 900); h != 0 {
		t.Errorf("day horizon = %v, want 0", h)
	}
	// Night: constant zero until the next dawn.
	if h := NextChange(tr, 2700); math.Abs(float64(h)-900) > 1e-9 {
		t.Errorf("night horizon = %v, want 900", h)
	}
}

func TestNextChangeBlackout(t *testing.T) {
	tr := BlackoutTrace(ConstantTrace(1), [2]units.Seconds{10, 5})
	// Inside the window: zero until the window ends.
	if h := NextChange(tr, 12); math.Abs(float64(h)-3) > 1e-9 {
		t.Errorf("in-window horizon = %v, want 3", h)
	}
	// Before the window: the base's infinite horizon is clamped at the
	// window start.
	if h := NextChange(tr, 4); math.Abs(float64(h)-6) > 1e-9 {
		t.Errorf("pre-window horizon = %v, want 6", h)
	}
	// After the last window the base horizon shines through.
	if h := NextChange(tr, 20); !math.IsInf(float64(h), 1) {
		t.Errorf("post-window horizon = %v, want Forever", h)
	}
	// An opaque base stays opaque outside the windows.
	op := BlackoutTrace(TraceFunc(func(units.Seconds) float64 { return 1 }),
		[2]units.Seconds{10, 5})
	if h := NextChange(op, 4); h != 0 {
		t.Errorf("opaque-base horizon = %v, want 0", h)
	}
}

// TestNextChangeScaleAndLimiter: a limiter caps power, not time, so its
// horizon is its source's.
func TestNextChangeScaleAndLimiter(t *testing.T) {
	lim := Limiter{Source: SolarPanel{PeakPower: units.MilliWatt,
		OpenCircuitVoltage: 1.5, Light: PWMTrace(0.5, 2)}, Max: 5.5}
	if h := NextChange(lim, 0.25); math.Abs(float64(h)-0.75) > 1e-9 {
		t.Errorf("limiter horizon = %v, want 0.75", h)
	}
}

// TestNextChangeIsSound property-checks the Stepped contract: over the
// reported horizon the source output must actually be constant.
func TestNextChangeIsSound(t *testing.T) {
	traces := []Trace{
		ConstantTrace(0.42),
		PWMTrace(0.42, 1.0),
		PWMTrace(0.9, 7.3),
		DiurnalTrace(3600),
		BlackoutTrace(PWMTrace(0.5, 2), [2]units.Seconds{3, 4}, [2]units.Seconds{20, 1}),
	}
	f := func(which uint8, tRaw uint32, fRaw uint16) bool {
		tr := traces[int(which)%len(traces)]
		t0 := units.Seconds(float64(tRaw) / 1e3)
		h := NextChange(tr, t0)
		if h < 0 {
			return false
		}
		if h == 0 {
			return true // unknown horizon: nothing promised
		}
		// Probe a point strictly inside [t0, t0+h).
		frac := float64(fRaw) / (math.MaxUint16 + 1)
		probe := t0 + units.Seconds(frac*0.999999)*units.Seconds(math.Min(float64(h), 1e6))
		return tr.Level(probe) == tr.Level(t0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
