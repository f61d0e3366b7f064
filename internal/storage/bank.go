package storage

import (
	"fmt"
	"math"
	"strings"

	"capybara/internal/units"
)

// Group is a parallel set of identical unit capacitors of one
// technology. Banks mix groups, e.g. the paper's TA fixed bank is
// "300 µF ceramic + 1100 µF tantalum + 7.5 mF EDLC".
type Group struct {
	Tech  Technology
	Count int
}

// Capacitance returns the group's total capacitance (units in parallel
// sum their capacitance).
func (g Group) Capacitance() units.Capacitance {
	return g.Tech.UnitCap * units.Capacitance(g.Count)
}

// ESR returns the group's effective series resistance: parallel units
// divide the unit ESR.
func (g Group) ESR() units.Resistance {
	if g.Count <= 0 {
		return units.Resistance(math.Inf(1))
	}
	return g.Tech.UnitESR / units.Resistance(g.Count)
}

// LeakResistance returns the group's effective parallel leakage
// resistance, or 0 if leakage is negligible.
func (g Group) LeakResistance() units.Resistance {
	if g.Count <= 0 || g.Tech.UnitLeak <= 0 {
		return 0
	}
	return g.Tech.UnitLeak / units.Resistance(g.Count)
}

// Volume returns the board volume consumed by the group.
func (g Group) Volume() units.Volume {
	return g.Tech.UnitVolume * units.Volume(g.Count)
}

// GroupOf builds a group of n units of tech.
func GroupOf(tech Technology, n int) Group { return Group{Tech: tech, Count: n} }

// GroupFor builds the smallest group of tech units whose total
// capacitance is at least c.
func GroupFor(tech Technology, c units.Capacitance) Group {
	if tech.UnitCap <= 0 || c <= 0 {
		return Group{Tech: tech}
	}
	n := int(math.Ceil(float64(c) / float64(tech.UnitCap)))
	return Group{Tech: tech, Count: n}
}

// Bank is a capacitor bank: one or more parallel groups that share a
// single stored-charge state. A Bank is the unit of reconfiguration —
// the reservoir package attaches one switch per bank.
type Bank struct {
	name    string
	groups  []Group
	voltage units.Voltage

	// Derived electrical properties are fixed by the group composition,
	// which never changes after construction; they are computed once so
	// the simulator's hot loops (leak ticks, charge segments) don't
	// re-reduce the groups on every call.
	cap   units.Capacitance
	esr   units.Resistance
	leakR units.Resistance
	rated units.Voltage

	// leakDt/leakFac memoize recent exp(−dt/RC) decay factors keyed by
	// the exact dt: the simulator leaks every bank once per drain, and
	// drain durations come from a handful of fixed peripheral timings,
	// so the same exponential recurs millions of times. Identical dt
	// yields the identical factor, so the memo changes no result bits.
	// Once all slots are full a miss evicts the oldest, leakOld, so the
	// recurring spans survive one-off ones.
	leakDt  [4]units.Seconds
	leakFac [4]float64
	leakN   int
	leakOld int
}

// NewBank builds a named bank from groups. It returns an error when the
// bank has no capacitance.
func NewBank(name string, groups ...Group) (*Bank, error) {
	b := &Bank{name: name, groups: groups}
	b.cap = b.sumCapacitance()
	b.esr = b.reduceESR()
	b.leakR = b.reduceLeakResistance()
	b.rated = b.reduceRatedVoltage()
	if b.cap <= 0 {
		return nil, fmt.Errorf("storage: bank %q has no capacitance", name)
	}
	return b, nil
}

// MustBank is NewBank for static configurations known to be valid.
func MustBank(name string, groups ...Group) *Bank {
	b, err := NewBank(name, groups...)
	if err != nil {
		panic(err)
	}
	return b
}

// Name returns the bank's configured name.
func (b *Bank) Name() string { return b.name }

// Groups returns a copy of the bank's group composition.
func (b *Bank) Groups() []Group {
	out := make([]Group, len(b.groups))
	copy(out, b.groups)
	return out
}

// Capacitance returns the bank's total capacitance.
func (b *Bank) Capacitance() units.Capacitance { return b.cap }

func (b *Bank) sumCapacitance() units.Capacitance {
	var c units.Capacitance
	for _, g := range b.groups {
		c += g.Capacitance()
	}
	return c
}

// ESR returns the bank's effective series resistance: the parallel
// combination of the group ESRs.
func (b *Bank) ESR() units.Resistance { return b.esr }

func (b *Bank) reduceESR() units.Resistance {
	var inv float64
	for _, g := range b.groups {
		if r := g.ESR(); r > 0 && !math.IsInf(float64(r), 1) {
			inv += 1 / float64(r)
		}
	}
	if inv == 0 {
		return 0
	}
	return units.Resistance(1 / inv)
}

func (b *Bank) reduceLeakResistance() units.Resistance {
	var inv float64
	for _, g := range b.groups {
		if r := g.LeakResistance(); r > 0 {
			inv += 1 / float64(r)
		}
	}
	if inv == 0 {
		return 0
	}
	return units.Resistance(1 / inv)
}

// Volume returns the board volume consumed by the bank's capacitors.
func (b *Bank) Volume() units.Volume {
	var v units.Volume
	for _, g := range b.groups {
		v += g.Volume()
	}
	return v
}

// RatedVoltage returns the lowest rated voltage across the bank's
// groups — the bank must not be charged above it.
func (b *Bank) RatedVoltage() units.Voltage { return b.rated }

func (b *Bank) reduceRatedVoltage() units.Voltage {
	v := units.Voltage(math.Inf(1))
	for _, g := range b.groups {
		if g.Count > 0 && g.Tech.RatedVoltage < v {
			v = g.Tech.RatedVoltage
		}
	}
	if math.IsInf(float64(v), 1) {
		return 0
	}
	return v
}

// Voltage returns the bank's present terminal voltage.
func (b *Bank) Voltage() units.Voltage { return b.voltage }

// SetVoltage forces the stored voltage; it is clamped to [0, rated].
// A value Voltage returned passes the clamp unchanged, so the pair
// saves and restores a bank's one mutable quantity exactly
// (reservoir.Array.Restore relies on this; the leak memo is a pure
// function of the fixed composition and needs no copy).
func (b *Bank) SetVoltage(v units.Voltage) {
	if v < 0 {
		v = 0
	}
	if b.rated > 0 && v > b.rated {
		v = b.rated
	}
	b.voltage = v
}

// Energy returns the total energy stored at the present voltage.
func (b *Bank) Energy() units.Energy {
	return units.StoredEnergy(b.Capacitance(), b.voltage)
}

// Charge adds energy at constant power p for dt and returns the new
// voltage, clamped at the rated voltage (the input booster stops
// charging a full bank).
func (b *Bank) Charge(p units.Power, dt units.Seconds) units.Voltage {
	v := units.ChargeVoltageAfter(b.Capacitance(), b.voltage, p, dt)
	b.SetVoltage(v)
	return b.voltage
}

// Leak self-discharges the bank for dt through its leakage resistance
// and returns the energy dissipated, so callers can close the energy
// balance (leaked energy is the one loss term that otherwise leaves the
// books silently).
func (b *Bank) Leak(dt units.Seconds) units.Energy {
	if b.leakR <= 0 || b.voltage <= 0 {
		return 0
	}
	if dt <= 0 {
		return 0
	}
	before := b.Energy()
	b.voltage = units.Voltage(float64(b.voltage) * b.leakFactor(dt))
	return before - b.Energy()
}

// leakFactor returns exp(−dt/RC) through the small decay-factor memo.
func (b *Bank) leakFactor(dt units.Seconds) float64 {
	for i := 0; i < b.leakN; i++ {
		if b.leakDt[i] == dt {
			return b.leakFac[i]
		}
	}
	f := math.Exp(-float64(dt) / (float64(b.leakR) * float64(b.cap)))
	i := b.leakN
	if i == len(b.leakDt) {
		i = b.leakOld // full: evict the oldest slot
		b.leakOld = (i + 1) % len(b.leakDt)
	} else {
		b.leakN++
	}
	b.leakDt[i], b.leakFac[i] = dt, f
	return f
}

func (b *Bank) String() string {
	parts := make([]string, 0, len(b.groups))
	for _, g := range b.groups {
		parts = append(parts, fmt.Sprintf("%v %s", g.Capacitance(), g.Tech.Name))
	}
	return fmt.Sprintf("%s[%s @ %v]", b.name, strings.Join(parts, " + "), b.voltage)
}

// Connect joins two banks electrically: charge redistributes so both
// settle at the charge-conserving common voltage
// V = (C1·V1 + C2·V2)/(C1 + C2). The dissipated energy (lost in the
// interconnect resistance) is returned; it is always ≥ 0.
func Connect(a, c *Bank) units.Energy {
	ca, cc := a.Capacitance(), c.Capacitance()
	if ca+cc <= 0 {
		return 0
	}
	before := a.Energy() + c.Energy()
	v := (float64(ca)*float64(a.voltage) + float64(cc)*float64(c.voltage)) / float64(ca+cc)
	a.SetVoltage(units.Voltage(v))
	c.SetVoltage(units.Voltage(v))
	after := a.Energy() + c.Energy()
	loss := before - after
	if loss < 0 {
		loss = 0
	}
	return loss
}

// CombinedCapacitance sums the capacitance of banks.
func CombinedCapacitance(banks []*Bank) units.Capacitance {
	var c units.Capacitance
	for _, b := range banks {
		c += b.Capacitance()
	}
	return c
}

// CombinedESR returns the parallel combination of the banks' ESRs.
func CombinedESR(banks []*Bank) units.Resistance {
	var inv float64
	for _, b := range banks {
		if r := b.ESR(); r > 0 {
			inv += 1 / float64(r)
		}
	}
	if inv == 0 {
		return 0
	}
	return units.Resistance(1 / inv)
}
