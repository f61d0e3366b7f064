// Package reservoir implements Capybara's reconfigurable energy storage
// circuit (paper §5.2): an array of capacitor banks, each behind a
// programmatically-controlled state-retaining switch, plus the
// alternative Vtop-threshold mechanism and the CapySat diode splitter.
//
// The package captures the behavioural contract the Capybara runtime
// depends on:
//
//   - banks activate/deactivate under software control (GPIO pulses);
//   - active banks are electrically connected and charge-share;
//   - deactivated banks retain their charge, minus leakage;
//   - a switch's latch capacitor retains its state for a bounded time
//     while the device is unpowered, after which the switch reverts to
//     its normally-open (small default) or normally-closed (maximum
//     capacity) configuration;
//   - pre-charging a bank through the switch tops out ~0.3 V below the
//     directly-charged voltage (the Capy-P limitation, §6.4).
package reservoir

import (
	"fmt"
	"math"
	"strings"

	"capybara/internal/storage"
	"capybara/internal/units"
)

// SwitchKind selects the default state a bank switch reverts to when
// its latch capacitor runs out during a long power outage.
type SwitchKind int

const (
	// NormallyOpen switches revert to disconnected: the array falls
	// back to the small default bank, which recharges quickly but may
	// be insufficient for the interrupted task (the paper's
	// adversarial-retry hazard).
	NormallyOpen SwitchKind = iota
	// NormallyClosed switches revert to connected: the array falls
	// back to maximum capacity, guaranteeing first-attempt success at
	// the cost of the longest recharge.
	NormallyClosed
)

func (k SwitchKind) String() string {
	if k == NormallyClosed {
		return "NC"
	}
	return "NO"
}

// Switch is the replicable bank-switch module from Fig. 6(b): a
// P-channel MOSFET held by a latch capacitor, with a replenishment
// circuit that tops the latch up whenever the device is powered.
type Switch struct {
	Kind SwitchKind
	// LatchCap is the latch capacitor (4.7 µF on the prototype).
	LatchCap units.Capacitance
	// LatchLeak is the leakage resistance discharging the latch while
	// the device is unpowered. With the default latch capacitor it
	// yields roughly the prototype's ~3 minute retention.
	LatchLeak units.Resistance
	// HoldVoltage is the minimum latch voltage that still holds the
	// programmed state.
	HoldVoltage units.Voltage
	// FullVoltage is the latch voltage right after (re)programming or
	// replenishment.
	FullVoltage units.Voltage

	closed bool
	latchV units.Voltage
}

// DefaultSwitch returns a switch module with the prototype's
// parameters: a 4.7 µF latch retaining state for about 3 minutes.
func DefaultSwitch(kind SwitchKind) *Switch {
	s := &Switch{
		Kind:        kind,
		LatchCap:    4.7 * units.MicroFarad,
		LatchLeak:   42e6, // RC·ln(2.5/1.0) ≈ 181 s retention
		HoldVoltage: 1.0,
		FullVoltage: 2.5,
	}
	s.Reset()
	return s
}

// Reset forces the switch to its default state with an empty latch.
func (s *Switch) Reset() {
	s.closed = s.Kind == NormallyClosed
	s.latchV = 0
}

// Closed reports whether the switch currently connects its bank.
func (s *Switch) Closed() bool { return s.closed }

// Set programs the switch. The caller must only invoke it while the
// device is powered (the GPIO interface charges or discharges the latch
// capacitor). Programming also fills the latch.
func (s *Switch) Set(closed bool) {
	s.closed = closed
	s.latchV = s.FullVoltage
}

// Replenish tops up the latch capacitor; the replenishment circuit does
// this continuously while the device is powered and the latch holds
// charge. A fully drained latch is NOT replenished: the state has
// already reverted.
func (s *Switch) Replenish() {
	if s.latchV >= s.HoldVoltage {
		s.latchV = s.FullVoltage
	}
}

// LatchVoltage returns the present latch-capacitor voltage (0 after a
// revert or before the first programming).
func (s *Switch) LatchVoltage() units.Voltage { return s.latchV }

// TickUnpowered advances the latch leakage by dt with the device off.
// If retention runs out within dt the switch reverts to its default
// state. It reports whether a revert happened.
//
// Expiry is decided by comparing dt against the remaining retention
// span rather than by comparing the post-leak voltage against
// HoldVoltage: the two are the same equation, but the span comparison
// makes "tick exactly Expiry()" revert deterministically instead of
// leaving the boundary to exp/log rounding luck.
func (s *Switch) TickUnpowered(dt units.Seconds) bool {
	if s.latchV <= 0 {
		return false
	}
	if need := units.TimeToLeakTo(s.LatchCap, s.latchV, s.HoldVoltage, s.LatchLeak); dt >= need {
		s.latchV = 0
		def := s.Kind == NormallyClosed
		if s.closed != def {
			s.closed = def
			return true
		}
		return false
	}
	s.latchV = units.LeakVoltageAfter(s.LatchCap, s.latchV, s.LatchLeak, dt)
	return false
}

// Retention returns how long the switch holds programmed state while
// unpowered, from a full latch.
func (s *Switch) Retention() units.Seconds {
	return units.TimeToLeakTo(s.LatchCap, s.FullVoltage, s.HoldVoltage, s.LatchLeak)
}

// Expiry returns how long the latch holds its programmed state from its
// present charge while unpowered: the exact time for the latch voltage
// to decay to HoldVoltage. An already-reverted (or never-programmed)
// latch returns +Inf — there is nothing left to expire. The value is
// exact (no epsilon pad): TickUnpowered compares spans, so ticking
// exactly Expiry() reverts at, not after, the retention limit — an
// outage ending precisely at expiry finds the switch already in its
// default state.
func (s *Switch) Expiry() units.Seconds {
	if s.latchV <= 0 {
		return units.Seconds(math.Inf(1))
	}
	return units.TimeToLeakTo(s.LatchCap, s.latchV, s.HoldVoltage, s.LatchLeak)
}

// Characterization constants from the paper (§6.5, §5.2).
const (
	// SwitchArea is the board area of one reconfiguration switch
	// module (including both NO and NC circuits and debug support).
	SwitchArea units.Area = 80
	// PowerSystemArea is the area of the shared distribution circuits.
	PowerSystemArea units.Area = 640
	// SolarArea is the area of the prototype's solar panels.
	SolarArea units.Area = 700
	// PrechargeDeficit is how far below the direct-charge voltage a
	// bank can be pre-charged through its switch (§6.4: "approximately
	// 0.3 V"). The Capybara runtime subtracts it when pre-charging
	// burst banks.
	PrechargeDeficit units.Voltage = 0.3
)

// BankState describes one bank's runtime condition.
type BankState struct {
	Name    string
	Active  bool
	Voltage units.Voltage
}

// Array is the reconfigurable reservoir: a base bank that is always
// connected plus switched banks. Bank indices: 0 is the base bank;
// 1..N address the switched banks.
type Array struct {
	base     *storage.Bank
	banks    []*storage.Bank
	switches []*Switch

	// ShareLoss accumulates the energy dissipated by charge sharing
	// across reconfigurations, for efficiency accounting.
	ShareLoss units.Energy
	// LeakLoss accumulates the energy self-discharged through the banks'
	// leakage resistances. Together with ShareLoss it lets callers close
	// the array's energy balance exactly.
	LeakLoss units.Energy
	// Reconfigurations counts switch programmings.
	Reconfigurations int
	// Reverts counts implicit reconfigurations caused by latch expiry.
	Reverts int

	// all and active cache the bank slices; the composition is fixed at
	// construction, and the active set changes only under Configure and
	// latch-expiry reverts (both of which refresh the cache). Without
	// the caches every passive tick and every power.Store call on the
	// ActiveSet allocated a fresh slice — the dominant allocation in
	// matrix sweeps.
	all    []*storage.Bank
	active []*storage.Bank
	// aset is the single reusable power.Store adapter; ActiveSet used to
	// allocate one per call, and the simulator calls it on every drain.
	aset ActiveSet
	// actCap/actESR/actRated are the parallel-combination electricals
	// of the connected banks, recomputed only when the configuration
	// changes: bank parameters are static, so between switch events
	// these are constants the drain path reads on every call.
	actCap   units.Capacitance
	actESR   units.Resistance
	actRated units.Voltage
	// actMask mirrors the switch positions as a bank bitmask (bit 0 is
	// the always-on base), refreshed with the other caches; ActiveMask
	// is on the per-task-iteration hot path.
	actMask uint64
}

// NewArray builds an array from a base bank and switched banks. Every
// switched bank gets its own DefaultSwitch of the given kind.
func NewArray(base *storage.Bank, kind SwitchKind, switched ...*storage.Bank) *Array {
	a := &Array{base: base, banks: switched}
	for range switched {
		a.switches = append(a.switches, DefaultSwitch(kind))
	}
	a.all = append([]*storage.Bank{base}, switched...)
	a.aset = ActiveSet{a: a}
	a.refreshActive()
	a.settle()
	return a
}

// refreshActive rebuilds the connected-bank cache from the switch
// states. It must be called after any switch state change.
func (a *Array) refreshActive() {
	a.active = a.active[:0]
	a.active = append(a.active, a.base)
	a.actMask = 1
	for i, s := range a.switches {
		if s.Closed() {
			a.active = append(a.active, a.banks[i])
			a.actMask |= 1 << uint(i+1)
		}
	}
	a.actCap = storage.CombinedCapacitance(a.active)
	a.actESR = storage.CombinedESR(a.active)
	rated := units.Voltage(math.Inf(1))
	for _, b := range a.active {
		if r := b.RatedVoltage(); r > 0 && r < rated {
			rated = r
		}
	}
	if math.IsInf(float64(rated), 1) {
		rated = 0
	}
	a.actRated = rated
}

// NumBanks returns the number of banks including the base bank.
func (a *Array) NumBanks() int { return 1 + len(a.banks) }

// Bank returns bank i (0 = base).
func (a *Array) Bank(i int) *storage.Bank {
	if i == 0 {
		return a.base
	}
	return a.banks[i-1]
}

// Switch returns the switch for bank i (1-based; the base bank has no
// switch).
func (a *Array) Switch(i int) *Switch { return a.switches[i-1] }

// ActiveMask returns a bitmask of the currently connected banks. Bit 0
// (the base bank) is always set.
func (a *Array) ActiveMask() uint64 { return a.actMask }

// Configure programs the switches so that exactly the banks in mask
// (plus the always-on base bank) are connected. Newly connected banks
// charge-share with the active set; the dissipated energy is accounted
// in ShareLoss. Configure must only be called while the device is
// powered. It returns an error for out-of-range mask bits.
func (a *Array) Configure(mask uint64) error {
	if mask>>uint(a.NumBanks()) != 0 {
		return fmt.Errorf("reservoir: mask %#x addresses nonexistent banks (have %d)", mask, a.NumBanks())
	}
	for i, s := range a.switches {
		want := mask&(1<<uint(i+1)) != 0
		if s.Closed() != want {
			s.Set(want)
			a.Reconfigurations++
		} else {
			s.Replenish()
		}
	}
	a.refreshActive()
	a.settle()
	return nil
}

// settle equalizes the voltage across all connected banks, conserving
// charge and accounting the dissipated energy.
func (a *Array) settle() {
	active := a.activeBanks()
	if len(active) < 2 {
		return
	}
	var q, c float64
	for _, b := range active {
		q += float64(b.Capacitance()) * float64(b.Voltage())
		c += float64(b.Capacitance())
	}
	v := units.Voltage(q / c)
	// Already settled (bit-equal voltages all the way down): the writes
	// below would change nothing and the loss would be exactly zero, so
	// skip the per-bank energy bookkeeping. Drains re-settle the set
	// every tick, and between reconfigurations the members usually sit
	// at exactly the shared terminal voltage.
	settled := true
	for _, b := range active {
		if b.Voltage() != v {
			settled = false
			break
		}
	}
	if settled {
		return
	}
	var before float64
	for _, b := range active {
		before += float64(b.Energy())
	}
	var after float64
	for _, b := range active {
		b.SetVoltage(v)
		after += float64(b.Energy())
	}
	if loss := before - after; loss > 0 {
		a.ShareLoss += units.Energy(loss)
	}
}

func (a *Array) activeBanks() []*storage.Bank { return a.active }

// TickPowered advances dt of powered time: bank self-discharge
// continues and the replenishment circuit keeps the latches full.
func (a *Array) TickPowered(dt units.Seconds) {
	for _, b := range a.allBanks() {
		a.LeakLoss += b.Leak(dt)
	}
	for _, s := range a.switches {
		s.Replenish()
	}
	a.settle()
}

// TickUnpowered advances dt of unpowered time: banks leak and latches
// decay; expired switches revert to their default state, implicitly
// reconfiguring the array (and charge-sharing if banks reconnect).
// Connected banks re-settle even without a revert: they share one
// terminal, so unequal leak rates drain the parallel combination
// rather than letting the members drift apart.
func (a *Array) TickUnpowered(dt units.Seconds) {
	for _, b := range a.allBanks() {
		a.LeakLoss += b.Leak(dt)
	}
	reverted := false
	for _, s := range a.switches {
		if s.TickUnpowered(dt) {
			reverted = true
			a.Reverts++
		}
	}
	if reverted {
		a.refreshActive()
	}
	a.settle()
}

// NextRevert returns how long until the earliest latch expiry reverts a
// switch away from its programmed state, assuming the device stays
// unpowered. It is +Inf when no programmed switch differs from its
// default (reverting to the default is a no-op for those) or all
// latches are already drained. The event-driven charge solver uses this
// as the "latch expiry" segment boundary: within the returned span,
// unpowered time changes no switch state.
func (a *Array) NextRevert() units.Seconds {
	next := units.Seconds(math.Inf(1))
	for _, s := range a.switches {
		if s.Closed() == (s.Kind == NormallyClosed) {
			continue // already in the default state: expiry changes nothing
		}
		if e := s.Expiry(); e < next {
			next = e
		}
	}
	return next
}

func (a *Array) allBanks() []*storage.Bank { return a.all }

// AppendState appends the array's complete mutable electrical state —
// every bank voltage (base first) and every latch voltage — to dst and
// returns the extended slice plus the active-bank mask. Together with
// the loss accumulators (LeakLoss, ShareLoss) and the Reverts counter,
// this is everything a passive tick or discharge can change.
func (a *Array) AppendState(dst []float64) ([]float64, uint64) {
	for _, b := range a.all {
		dst = append(dst, float64(b.Voltage()))
	}
	for _, s := range a.switches {
		dst = append(dst, float64(s.latchV))
	}
	return dst, a.ActiveMask()
}

// MatchState reports whether the array's present mutable state — every
// bank voltage, every latch voltage, and the switch configuration — is
// bit-identical to a state previously captured by AppendState.
// Comparison is on IEEE-754 bit patterns: float equality would conflate
// -0 with 0 and can never match a NaN against itself.
func (a *Array) MatchState(vals []float64, mask uint64) bool {
	if mask != a.actMask || len(vals) != len(a.all)+len(a.switches) {
		return false
	}
	for i, b := range a.all {
		if math.Float64bits(float64(b.Voltage())) != math.Float64bits(vals[i]) {
			return false
		}
	}
	nb := len(a.all)
	for i, s := range a.switches {
		if math.Float64bits(float64(s.latchV)) != math.Float64bits(vals[nb+i]) {
			return false
		}
	}
	return true
}

// States reports each bank's condition for tracing.
func (a *Array) States() []BankState {
	out := []BankState{{Name: a.base.Name(), Active: true, Voltage: a.base.Voltage()}}
	for i, b := range a.banks {
		out = append(out, BankState{Name: b.Name(), Active: a.switches[i].Closed(), Voltage: b.Voltage()})
	}
	return out
}

// Area returns the reconfiguration hardware's board area: one switch
// module per switched bank.
func (a *Array) Area() units.Area {
	return SwitchArea * units.Area(len(a.switches))
}

func (a *Array) String() string {
	var parts []string
	for _, st := range a.States() {
		mark := " "
		if st.Active {
			mark = "*"
		}
		parts = append(parts, fmt.Sprintf("%s%s@%v", mark, st.Name, st.Voltage))
	}
	return "array[" + strings.Join(parts, " ") + "]"
}

// ActiveSet returns the power.Store view of the connected banks.
func (a *Array) ActiveSet() *ActiveSet { return &a.aset }

// ActiveSet adapts the connected banks to the power.Store interface.
// All connected banks share one terminal voltage (maintained by
// settle), so the set behaves as a single capacitor whose capacitance
// and ESR are the parallel combination.
type ActiveSet struct{ a *Array }

// Capacitance implements power.Store.
func (s *ActiveSet) Capacitance() units.Capacitance { return s.a.actCap }

// Voltage implements power.Store. The connected banks are always
// settled to a common voltage.
func (s *ActiveSet) Voltage() units.Voltage { return s.a.base.Voltage() }

// SetVoltage implements power.Store, setting every connected bank.
func (s *ActiveSet) SetVoltage(v units.Voltage) {
	for _, b := range s.a.activeBanks() {
		b.SetVoltage(v)
	}
}

// ESR implements power.Store.
func (s *ActiveSet) ESR() units.Resistance { return s.a.actESR }

// RatedVoltage returns the lowest rated voltage among connected banks.
func (s *ActiveSet) RatedVoltage() units.Voltage { return s.a.actRated }

// Energy returns the energy stored across connected banks.
func (s *ActiveSet) Energy() units.Energy {
	var e units.Energy
	for _, b := range s.a.activeBanks() {
		e += b.Energy()
	}
	return e
}
