package storage

import (
	"math"
	"math/rand"
	"testing"

	"capybara/internal/units"
)

// randomBank builds a bank from 1–3 random catalog groups, charged to a
// random legal voltage.
func randomBank(t *testing.T, rng *rand.Rand, name string) *Bank {
	t.Helper()
	catalog := []Technology{CeramicX5R, Tantalum, SupercapCPH3225A, EDLC}
	n := 1 + rng.Intn(3)
	groups := make([]Group, 0, n)
	for i := 0; i < n; i++ {
		groups = append(groups, GroupOf(catalog[rng.Intn(len(catalog))], 1+rng.Intn(6)))
	}
	b, err := NewBank(name, groups...)
	if err != nil {
		t.Fatal(err)
	}
	b.SetVoltage(units.Voltage(rng.Float64()) * b.RatedVoltage())
	return b
}

// TestConnectConservesChargeRandomTopologies is the charge-sharing
// property over randomized bank pairs: joining two banks must settle
// both on one terminal voltage, conserve charge exactly, and only ever
// dissipate energy (the returned loss), never mint it.
func TestConnectConservesChargeRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		a := randomBank(t, rng, "a")
		b := randomBank(t, rng, "b")
		qBefore := float64(a.Capacitance())*float64(a.Voltage()) + float64(b.Capacitance())*float64(b.Voltage())
		eBefore := float64(a.Energy() + b.Energy())
		common := qBefore / float64(a.Capacitance()+b.Capacitance())
		// A weighted mean of two voltages legal for their own banks can
		// still exceed the *other* bank's rating when ratings differ, in
		// which case SetVoltage clamps and sheds charge (legally, as loss).
		clamped := common > float64(a.RatedVoltage()) || common > float64(b.RatedVoltage())

		loss := Connect(a, b)

		if loss < 0 {
			t.Fatalf("trial %d: negative sharing loss %v", trial, loss)
		}
		qAfter := float64(a.Capacitance())*float64(a.Voltage()) + float64(b.Capacitance())*float64(b.Voltage())
		if qAfter > qBefore+1e-12+1e-9*math.Abs(qBefore) {
			t.Fatalf("trial %d: sharing created charge: %.15g C → %.15g C", trial, qBefore, qAfter)
		}
		eAfter := float64(a.Energy() + b.Energy())
		if eAfter > eBefore+1e-12+1e-9*eBefore {
			t.Fatalf("trial %d: sharing created energy: %.15g J → %.15g J", trial, eBefore, eAfter)
		}
		if !clamped {
			if av, bv := a.Voltage(), b.Voltage(); math.Abs(float64(av-bv)) > 1e-12 {
				t.Fatalf("trial %d: banks did not settle together: %v vs %v", trial, av, bv)
			}
			if tol := 1e-12 + 1e-9*math.Abs(qBefore); math.Abs(qAfter-qBefore) > tol {
				t.Fatalf("trial %d: charge not conserved: %.15g C → %.15g C", trial, qBefore, qAfter)
			}
			if tol := 1e-12 + 1e-6*eBefore; math.Abs(eBefore-eAfter-float64(loss)) > tol {
				t.Fatalf("trial %d: reported loss %v does not match energy drop %.15g J",
					trial, loss, eBefore-eAfter)
			}
		}
	}
}

// TestEnergyBooksCloseRandomTopologies drives random charge and leak
// operations against randomized banks and checks that stored energy
// always equals initial + charged − leaked, with the rated-voltage
// clamp as the only (one-sided) escape.
func TestEnergyBooksCloseRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		b := randomBank(t, rng, "bank")
		books := float64(b.Energy())
		for op := 0; op < 50; op++ {
			switch rng.Intn(2) {
			case 0: // charge
				p := units.Power(1e-6 + rng.Float64()*10e-3)
				dt := units.Seconds(0.01 + rng.Float64()*5)
				before := b.Voltage()
				b.Charge(p, dt)
				if b.Voltage() < b.RatedVoltage()-1e-12 {
					books += float64(p) * float64(dt)
				} else {
					// Clamped at rated: some input was shed. Re-base the
					// books at the clamp; energy must not exceed them.
					books = float64(b.Energy())
					if full := float64(units.StoredEnergy(b.Capacitance(), b.RatedVoltage())); books > full+1e-12 {
						t.Fatalf("trial %d op %d: clamp overshot rated energy: %.15g > %.15g (from %v)",
							trial, op, books, full, before)
					}
				}
			case 1: // leak
				books -= float64(b.Leak(units.Seconds(rng.Float64() * 100)))
			}
			got := float64(b.Energy())
			if tol := 1e-12 + 1e-6*math.Max(math.Abs(books), got); math.Abs(got-books) > tol {
				t.Fatalf("trial %d op %d: energy books off: stored %.15g J, books %.15g J (Δ %.3g)",
					trial, op, got, books, got-books)
			}
			if got < -1e-15 {
				t.Fatalf("trial %d op %d: negative stored energy %.15g", trial, op, got)
			}
		}
	}
}

// FuzzConnect hammers the charge-sharing primitive with arbitrary
// capacitances, ratings, and voltages: whatever the inputs, Connect
// must never create charge or energy, never report a negative loss,
// and must leave both banks on a common, legal voltage.
func FuzzConnect(f *testing.F) {
	f.Add(100e-6, 7.5e-3, 3.6, 3.6, 1.2, 3.0)
	f.Add(22e-6, 22e-6, 6.3, 6.3, 0.0, 6.3)
	f.Add(11e-3, 330e-6, 3.3, 6.3, 3.3, 0.1)
	f.Fuzz(func(t *testing.T, capA, capB, ratedA, ratedB, vA, vB float64) {
		clampCap := func(c float64) units.Capacitance {
			if math.IsNaN(c) || c < 1e-9 {
				c = 1e-9
			}
			if c > 1 {
				c = 1
			}
			return units.Capacitance(c)
		}
		clampRated := func(r float64) units.Voltage {
			if math.IsNaN(r) || r < 0.1 {
				r = 0.1
			}
			if r > 20 {
				r = 20
			}
			return units.Voltage(r)
		}
		mk := func(name string, c units.Capacitance, rated units.Voltage, v float64) *Bank {
			b := MustBank(name, GroupOf(Technology{
				Name: "fuzz", UnitCap: c, UnitVolume: 1, UnitESR: 0.1, RatedVoltage: rated,
			}, 1))
			if math.IsNaN(v) {
				v = 0
			}
			b.SetVoltage(units.Voltage(v)) // SetVoltage clamps to [0, rated]
			return b
		}
		a := mk("a", clampCap(capA), clampRated(ratedA), vA)
		b := mk("b", clampCap(capB), clampRated(ratedB), vB)

		qBefore := float64(a.Capacitance())*float64(a.Voltage()) + float64(b.Capacitance())*float64(b.Voltage())
		eBefore := float64(a.Energy() + b.Energy())
		common := qBefore / float64(a.Capacitance()+b.Capacitance())

		loss := Connect(a, b)

		if loss < 0 || math.IsNaN(float64(loss)) {
			t.Fatalf("bad sharing loss %v", loss)
		}
		for _, bk := range []*Bank{a, b} {
			if v := bk.Voltage(); v < 0 || float64(v) > float64(bk.RatedVoltage())+1e-9 || math.IsNaN(float64(v)) {
				t.Fatalf("bank %s at illegal voltage %v (rated %v)", bk.Name(), v, bk.RatedVoltage())
			}
		}
		qAfter := float64(a.Capacitance())*float64(a.Voltage()) + float64(b.Capacitance())*float64(b.Voltage())
		if qAfter > qBefore+1e-12+1e-9*math.Abs(qBefore) {
			t.Fatalf("Connect created charge: %.15g C → %.15g C", qBefore, qAfter)
		}
		eAfter := float64(a.Energy() + b.Energy())
		if eAfter > eBefore+1e-12+1e-9*eBefore {
			t.Fatalf("Connect created energy: %.15g J → %.15g J", eBefore, eAfter)
		}
		// When the common voltage is legal for both banks (no clamp), the
		// banks must settle together.
		if common <= float64(a.RatedVoltage()) && common <= float64(b.RatedVoltage()) {
			if d := math.Abs(float64(a.Voltage() - b.Voltage())); d > 1e-9 {
				t.Fatalf("banks did not settle together: %v vs %v", a.Voltage(), b.Voltage())
			}
		}
	})
}
