package reservoir

import (
	"math"
	"testing"
	"testing/quick"

	"capybara/internal/harvest"
	"capybara/internal/power"
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

func smallBank() *storage.Bank {
	return storage.MustBank("small",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad))
}

func midBank() *storage.Bank {
	return storage.MustBank("mid", storage.GroupOf(storage.EDLC, 1)) // 7.5 mF
}

func bigBank() *storage.Bank {
	return storage.MustBank("big", storage.GroupOf(storage.EDLC, 9)) // 67.5 mF
}

func newTestArray(kind SwitchKind) *Array {
	return NewArray(smallBank(), kind, midBank(), bigBank())
}

func TestSwitchDefaults(t *testing.T) {
	no := DefaultSwitch(NormallyOpen)
	if no.Closed() {
		t.Error("NO switch should start open")
	}
	nc := DefaultSwitch(NormallyClosed)
	if !nc.Closed() {
		t.Error("NC switch should start closed")
	}
	if no.Kind.String() != "NO" || nc.Kind.String() != "NC" {
		t.Error("kind stringers broken")
	}
}

func TestSwitchRetention(t *testing.T) {
	s := DefaultSwitch(NormallyOpen)
	s.Set(true)
	// Prototype retention: "approximately 3 minutes".
	r := s.Retention()
	if r < 120 || r > 260 {
		t.Fatalf("retention = %v, want ≈3 min", r)
	}
	// Within retention the state holds.
	if s.TickUnpowered(r - 10); !s.Closed() {
		t.Fatal("switch lost state before retention expired")
	}
	// Past retention it reverts.
	if reverted := s.TickUnpowered(20); !reverted || s.Closed() {
		t.Fatalf("switch should revert after retention (reverted=%v closed=%v)", reverted, s.Closed())
	}
	// A reverted switch does not report reverting again.
	if s.TickUnpowered(1000) {
		t.Fatal("double revert")
	}
}

func TestSwitchReplenishOnlyWhileHeld(t *testing.T) {
	s := DefaultSwitch(NormallyOpen)
	s.Set(true)
	s.TickUnpowered(60)
	s.Replenish()
	if s.latchV != s.FullVoltage {
		t.Fatal("replenish should refill a held latch")
	}
	// Drain fully: replenish must NOT resurrect the state.
	s.TickUnpowered(1e4)
	if s.Closed() {
		t.Fatal("latch should have expired")
	}
	s.Replenish()
	if s.latchV != 0 {
		t.Fatal("replenish resurrected a drained latch")
	}
}

func TestArrayConfigure(t *testing.T) {
	a := newTestArray(NormallyOpen)
	if got := a.ActiveMask(); got != 0b001 {
		t.Fatalf("initial mask = %#b, want base only", got)
	}
	if err := a.Configure(0b011); err != nil {
		t.Fatal(err)
	}
	if got := a.ActiveMask(); got != 0b011 {
		t.Fatalf("mask = %#b, want 0b011", got)
	}
	if a.Reconfigurations != 1 {
		t.Fatalf("reconfigurations = %d, want 1", a.Reconfigurations)
	}
	// Re-configuring to the same mask is free.
	if err := a.Configure(0b011); err != nil {
		t.Fatal(err)
	}
	if a.Reconfigurations != 1 {
		t.Fatalf("no-op reconfig counted: %d", a.Reconfigurations)
	}
	if err := a.Configure(0b1000); err == nil {
		t.Fatal("out-of-range mask accepted")
	}
}

func TestConfigureChargeShares(t *testing.T) {
	a := newTestArray(NormallyOpen)
	a.Bank(0).SetVoltage(2.4)
	a.Bank(1).SetVoltage(0)
	if err := a.Configure(0b011); err != nil {
		t.Fatal(err)
	}
	v0, v1 := a.Bank(0).Voltage(), a.Bank(1).Voltage()
	if v0 != v1 {
		t.Fatalf("connected banks not settled: %v vs %v", v0, v1)
	}
	if v0 >= 2.4 || v0 <= 0 {
		t.Fatalf("settled voltage = %v, want between 0 and 2.4", v0)
	}
	if a.ShareLoss <= 0 {
		t.Fatal("charge sharing should dissipate energy")
	}
	// The disconnected big bank is untouched.
	if a.Bank(2).Voltage() != 0 {
		t.Fatalf("inactive bank moved: %v", a.Bank(2).Voltage())
	}
}

func TestDeactivatedBankRetainsCharge(t *testing.T) {
	// The key Capy-P property (§4.2): a de-activated mode's energy
	// buffers retain their stored energy, except leakage.
	a := newTestArray(NormallyOpen)
	if err := a.Configure(0b100); err != nil { // big bank in
		t.Fatal(err)
	}
	a.ActiveSet().SetVoltage(2.0)
	if err := a.Configure(0b000); err != nil { // big bank out
		t.Fatal(err)
	}
	if got := a.Bank(2).Voltage(); got != 2.0 {
		t.Fatalf("deactivated bank voltage = %v, want 2.0", got)
	}
	// Leakage still applies over time.
	a.TickPowered(3600)
	if got := a.Bank(2).Voltage(); got >= 2.0 {
		t.Fatalf("EDLC bank did not leak: %v", got)
	}
}

func TestNOArrayRevertsToSmallDefault(t *testing.T) {
	a := newTestArray(NormallyOpen)
	if err := a.Configure(0b110); err != nil {
		t.Fatal(err)
	}
	// A long outage: latches expire, NO switches open.
	a.TickUnpowered(1000)
	if got := a.ActiveMask(); got != 0b001 {
		t.Fatalf("post-outage mask = %#b, want base only", got)
	}
	if a.Reverts != 2 {
		t.Fatalf("reverts = %d, want 2", a.Reverts)
	}
}

func TestNCArrayRevertsToMaxCapacity(t *testing.T) {
	a := newTestArray(NormallyClosed)
	if err := a.Configure(0b001); err != nil { // open both switches
		t.Fatal(err)
	}
	a.TickUnpowered(1000)
	if got := a.ActiveMask(); got != 0b111 {
		t.Fatalf("post-outage mask = %#b, want all banks", got)
	}
}

func TestShortOutageKeepsState(t *testing.T) {
	a := newTestArray(NormallyOpen)
	if err := a.Configure(0b010); err != nil {
		t.Fatal(err)
	}
	a.TickUnpowered(30) // well within ~3 min retention
	if got := a.ActiveMask(); got != 0b011 {
		t.Fatalf("mask after short outage = %#b, want 0b011", got)
	}
	if a.Reverts != 0 {
		t.Fatalf("reverts = %d, want 0", a.Reverts)
	}
}

func TestActiveSetStoreView(t *testing.T) {
	a := newTestArray(NormallyOpen)
	if err := a.Configure(0b111); err != nil {
		t.Fatal(err)
	}
	set := a.ActiveSet()
	wantC := a.Bank(0).Capacitance() + a.Bank(1).Capacitance() + a.Bank(2).Capacitance()
	if got := set.Capacitance(); !almostEqual(float64(got), float64(wantC), 1e-12) {
		t.Fatalf("active capacitance = %v, want %v", got, wantC)
	}
	set.SetVoltage(2.2)
	for i := 0; i < 3; i++ {
		if a.Bank(i).Voltage() != 2.2 {
			t.Fatalf("bank %d voltage = %v", i, a.Bank(i).Voltage())
		}
	}
	if set.Voltage() != 2.2 {
		t.Fatalf("set voltage = %v", set.Voltage())
	}
	// Rated voltage is limited by the EDLC banks (3.6 V).
	if got := set.RatedVoltage(); got != 3.6 {
		t.Fatalf("rated = %v, want 3.6", got)
	}
	if set.Energy() <= 0 {
		t.Fatal("energy should be positive")
	}
	// ESR of the set must be below any single member's ESR.
	if set.ESR() >= a.Bank(1).ESR() {
		t.Fatalf("combined ESR %v not below member ESR %v", set.ESR(), a.Bank(1).ESR())
	}
}

func TestActiveSetWorksWithPowerSystem(t *testing.T) {
	a := newTestArray(NormallyOpen)
	sys := power.NewSystem(harvest.RegulatedSupply{Max: 10 * units.MilliWatt, V: 3.0})
	// Charge base-only, then grow the configuration and charge again.
	dtSmall, ok := sys.TimeToChargeTo(a.ActiveSet(), 2.4, 0, 1e6)
	if !ok {
		t.Fatal("small config charge failed")
	}
	if err := a.Configure(0b100); err != nil {
		t.Fatal(err)
	}
	dtBig, ok := sys.TimeToChargeTo(a.ActiveSet(), 2.4, 0, 1e6)
	if !ok {
		t.Fatal("big config charge failed")
	}
	if dtBig < 10*dtSmall {
		t.Fatalf("big config (%v) should charge much slower than small (%v)", dtBig, dtSmall)
	}
}

// Property: Configure conserves charge across arbitrary mask sequences
// (ignoring leakage, which is not ticked here).
func TestConfigureConservesChargeProperty(t *testing.T) {
	f := func(masks []uint8, v0, v1, v2 uint8) bool {
		a := newTestArray(NormallyOpen)
		a.Bank(0).SetVoltage(units.Voltage(float64(v0) / 255 * 3))
		a.Bank(1).SetVoltage(units.Voltage(float64(v1) / 255 * 3))
		a.Bank(2).SetVoltage(units.Voltage(float64(v2) / 255 * 3))
		a.settle()
		charge := func() float64 {
			var q float64
			for i := 0; i < a.NumBanks(); i++ {
				q += float64(a.Bank(i).Capacitance()) * float64(a.Bank(i).Voltage())
			}
			return q
		}
		before := charge()
		for _, m := range masks {
			if err := a.Configure(uint64(m) & 0b111); err != nil {
				return false
			}
		}
		return almostEqual(before, charge(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialNOTiming(t *testing.T) {
	// The paper's §5.2 hazard: with NO switches and input power that
	// dies for longer than the latch retention, a device that needs the
	// big bank keeps losing its configuration. Verify the implicit
	// reconfiguration occurs on every long outage.
	a := newTestArray(NormallyOpen)
	for cycle := 0; cycle < 5; cycle++ {
		if err := a.Configure(0b100); err != nil {
			t.Fatal(err)
		}
		if a.ActiveMask() != 0b101 {
			t.Fatalf("cycle %d: configure failed", cycle)
		}
		a.TickUnpowered(600) // outage longer than retention
		if a.ActiveMask() != 0b001 {
			t.Fatalf("cycle %d: switch retained state across long outage", cycle)
		}
	}
	if a.Reverts != 5 {
		t.Fatalf("reverts = %d, want 5", a.Reverts)
	}
}

func TestStatesAndStringer(t *testing.T) {
	a := newTestArray(NormallyOpen)
	st := a.States()
	if len(st) != 3 || !st[0].Active || st[1].Active {
		t.Fatalf("States() = %+v", st)
	}
	if a.String() == "" {
		t.Fatal("empty stringer")
	}
}

func TestArraySwitchAccessor(t *testing.T) {
	a := newTestArray(NormallyOpen)
	sw := a.Switch(1)
	if sw == nil || sw.Closed() {
		t.Fatalf("switch accessor broken: %+v", sw)
	}
	if err := a.Configure(0b010); err != nil {
		t.Fatal(err)
	}
	if !a.Switch(1).Closed() {
		t.Fatal("switch state not visible through accessor")
	}
}

func TestSwitchExpiry(t *testing.T) {
	s := DefaultSwitch(NormallyOpen)
	if e := s.Expiry(); !math.IsInf(float64(e), 1) {
		t.Fatalf("empty latch Expiry = %v, want +Inf", e)
	}
	s.Set(true)
	e := s.Expiry()
	if !almostEqual(float64(e), float64(s.Retention()), 1e-6) {
		t.Fatalf("full-latch Expiry = %v, want ≈ Retention %v", e, s.Retention())
	}
	// Ticking exactly Expiry must revert: TickUnpowered compares the
	// elapsed span against the remaining retention, so the boundary is
	// exact rather than left to exp/log rounding.
	if !s.TickUnpowered(e) {
		t.Fatalf("TickUnpowered(Expiry()) did not revert (latchV=%v)", s.latchV)
	}
	if s.Closed() {
		t.Fatal("NO switch still closed after latch expiry")
	}
	// Partially decayed latches expire sooner than full ones.
	s.Set(true)
	s.TickUnpowered(60)
	if got := s.Expiry(); got >= s.Retention() {
		t.Fatalf("decayed-latch Expiry = %v, want < Retention %v", got, s.Retention())
	}
}

func TestArrayNextRevert(t *testing.T) {
	a := newTestArray(NormallyOpen)
	// Default configuration: no switch differs from its default state.
	if nr := a.NextRevert(); !math.IsInf(float64(nr), 1) {
		t.Fatalf("default-config NextRevert = %v, want +Inf", nr)
	}
	if err := a.Configure(0b111); err != nil {
		t.Fatal(err)
	}
	nr := a.NextRevert()
	if !almostEqual(float64(nr), float64(a.Switch(1).Retention()), 1e-6) {
		t.Fatalf("NextRevert = %v, want ≈ Retention %v", nr, a.Switch(1).Retention())
	}
	// Inside the horizon nothing reverts; ticking to the horizon does.
	a.TickUnpowered(nr / 2)
	if a.Reverts != 0 {
		t.Fatalf("revert before NextRevert horizon: %d", a.Reverts)
	}
	a.TickUnpowered(a.NextRevert())
	if a.Reverts != 2 {
		t.Fatalf("Reverts after ticking past horizon = %d, want 2", a.Reverts)
	}
	if a.ActiveMask() != 0b001 {
		t.Fatalf("mask after revert = %#b, want 0b001", a.ActiveMask())
	}
	// Fully reverted: nothing left to expire.
	if nr := a.NextRevert(); !math.IsInf(float64(nr), 1) {
		t.Fatalf("post-revert NextRevert = %v, want +Inf", nr)
	}
}
