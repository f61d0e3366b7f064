package capysat

import (
	"math"
	"testing"

	"capybara/internal/reservoir"
	"capybara/internal/units"
)

// TestStorageFitsBoard checks §6.6's volume budget: both banks fit the
// quarter of the 43.2 × 43.2 × 3.8 mm (1.7 × 1.7 × 0.15 in) stack that
// is available for energy storage.
func TestStorageFitsBoard(t *testing.T) {
	const boardSide, boardThickness = 43.2, 3.8 // mm
	board := units.Volume(boardSide * boardSide * boardThickness)
	p := New()
	if v := p.Split.BankA.Volume() + p.Split.BankB.Volume(); v > board/4 {
		t.Fatalf("capacitors (%v) exceed the volume budget (%v/4)", v, board)
	}
}

func TestAreaSavingsClaim(t *testing.T) {
	p := New()
	splitter, switches := p.AreaSavings()
	if splitter*5 != switches {
		t.Fatalf("splitter area %v should be 20%% of switch area %v", splitter, switches)
	}
	if splitter != reservoir.SwitchArea/5 {
		t.Fatalf("splitter area = %v", splitter)
	}
}

func TestBoostersAreVital(t *testing.T) {
	// §6.6: "without the input and output boosters, energy storable and
	// extractable from a capacitor bank that would fit on the board
	// would be insufficient for the radio transmission."
	f := New().Feasibility()
	if !f.FeasibleBoosted {
		t.Fatalf("boosted system infeasible: %v extractable vs %v needed", f.WithBoost, f.PacketEnergy)
	}
	if f.FeasibleRaw {
		t.Fatalf("raw (no boosters) system should be infeasible: %v extractable", f.NoInputBoost)
	}
	// The chain degrades monotonically: full system > no output boost ≥
	// no input boost.
	if !(f.WithBoost > f.NoOutputBoost && f.NoOutputBoost >= f.NoInputBoost) {
		t.Fatalf("booster degradation not monotone: %v, %v, %v",
			f.WithBoost, f.NoOutputBoost, f.NoInputBoost)
	}
	// The cold, high-ESR supercapacitor bank strands everything without
	// the output booster ("renders the capacitor useless in power
	// systems without the capability to boost voltage", §2.2.2), and
	// without the input booster it cannot even charge usefully.
	if f.NoOutputBoost >= f.PacketEnergy {
		t.Fatalf("no-output-boost extractable = %v, should be infeasible", f.NoOutputBoost)
	}
	if f.NoInputBoost > 0 {
		t.Fatalf("no-input-boost extractable = %v, want 0", f.NoInputBoost)
	}
}

func TestEligibilityAtMinusForty(t *testing.T) {
	// §6.6: batteries (including thin-film) and many supercapacitors
	// are disqualified; the platform's chosen parts qualify.
	e := Eligibility()
	wantQualified := map[string]bool{
		"ceramic-X5R":       true,
		"tantalum":          true,
		"supercap-CPH3225A": true,
		"EDLC":              false,
		"thin-film-battery": false,
	}
	for name, want := range wantQualified {
		got, ok := e[name]
		if !ok {
			t.Fatalf("technology %s missing from eligibility map", name)
		}
		if got != want {
			t.Errorf("%s eligible = %v, want %v", name, got, want)
		}
	}
}

func TestSimulateMission(t *testing.T) {
	p := New()
	res := p.Simulate(2)
	if res.Orbits != 2 {
		t.Fatalf("orbits = %d", res.Orbits)
	}
	if res.Samples == 0 {
		t.Fatal("no IMU samples collected")
	}
	if res.Packets == 0 {
		t.Fatal("no packets transmitted")
	}
	// Sampling is the cheap mode, communication the expensive one: the
	// sampling MCU must complete more operations than the comm MCU.
	if res.Samples <= res.Packets {
		t.Fatalf("samples (%d) should outnumber packets (%d)", res.Samples, res.Packets)
	}
	if res.CommBankPeak < 2.0 {
		t.Fatalf("comm bank never charged usefully: peak %v", res.CommBankPeak)
	}
	if res.String() == "" {
		t.Fatal("empty stringer")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := New().Simulate(1)
	b := New().Simulate(1)
	if a != b {
		t.Fatalf("mission not deterministic: %+v vs %+v", a, b)
	}
}

func TestDirectCutoffSolvesEquation(t *testing.T) {
	v := directCutoff(2.0, RadioTxPower, 4)
	got := float64(v) - float64(RadioTxPower)/float64(v)*4
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("direct cutoff equation residual: %g", got)
	}
	if s := sqrt(0); s != 0 {
		t.Fatalf("sqrt(0) = %g", s)
	}
	if s := sqrt(9); math.Abs(s-3) > 1e-9 {
		t.Fatalf("sqrt(9) = %g", s)
	}
}

func TestRadioAtomicityNumbers(t *testing.T) {
	// The paper's numbers: 250 ms at 30 mA (on the 2.0 V rail).
	if RadioTxTime != 0.25 {
		t.Fatalf("tx time = %v", RadioTxTime)
	}
	if RadioTxPower != 60*units.MilliWatt {
		t.Fatalf("tx power = %v", RadioTxPower)
	}
}
