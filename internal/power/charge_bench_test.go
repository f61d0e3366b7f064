package power

import (
	"testing"

	"capybara/internal/harvest"
	"capybara/internal/units"
)

// BenchmarkChargeSolvePWM times the segment solver on a periodic PWM
// lifecycle: every cycle browns out below the cold-start threshold and
// walks the analytic solver through bypass ceiling → cold start →
// started booster, one source sample and closed-form solve per phase.
func BenchmarkChargeSolvePWM(b *testing.B) {
	src := harvest.SolarPanel{PeakPower: 5 * units.MilliWatt, OpenCircuitVoltage: 3,
		Light: harvest.PWMTrace(0.42, 8)}
	sys := NewSystem(src)
	st := &quickStore{c: 100 * units.MicroFarad, v: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := units.Seconds(i) * 8
		sys.TimeToChargeTo(st, 2.8, t0, 8)
		st.v = 0.6
	}
}
