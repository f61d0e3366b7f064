package chaos

import (
	"fmt"
	"math"

	"capybara/internal/reservoir"
	"capybara/internal/sim"
	"capybara/internal/units"
)

// Violation is one invariant breach observed during a chaos trial.
type Violation struct {
	Trial     int
	Seed      int64
	Invariant string
	T         units.Seconds
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("trial %d seed %d t=%v [%s] %s", v.Trial, v.Seed, v.T, v.Invariant, v.Detail)
}

// Invariant is one registry entry: a named physics/semantics property
// checked after every observed simulator event, with its tolerance
// documented. The registry is the heart of the harness — every entry
// is a claim the paper's arguments rest on.
type Invariant struct {
	Name string
	// Desc states what the invariant asserts and its tolerance.
	Desc string
	// Check runs the assertion; nil entries are checked elsewhere
	// (scenario scripts or fuzz targets) and listed for documentation.
	Check func(c *Checker, e sim.HookEvent)
}

// registry is the ordered invariant set Checker.Observe runs.
var registry = []Invariant{
	{
		Name: "clock-monotone",
		Desc: "event spans are well-formed and simulated time never runs backwards (exact); overlapping views of one span (charge-segment then span) are legal, an end before the clock high-water mark is not",
		Check: func(c *Checker, e sim.HookEvent) {
			if e.T1 < e.T0 || e.T1 < c.lastT-1e-9 {
				c.failf("clock-monotone", e.T1, "span [%v,%v] after t=%v", e.T0, e.T1, c.lastT)
			}
		},
	},
	{
		Name: "energy-balance",
		Desc: "total bank energy equals initial + charged − drawn − share loss − leak loss (tolerance 1e-9 J + 1e-6 relative)",
		Check: func(c *Checker, e sim.HookEvent) {
			st := c.dev.Stats
			arr := c.dev.Array
			budget := float64(c.initial) +
				float64(st.EnergyIntoStore-c.baseInto) - float64(st.EnergyDrawn-c.baseDrawn) -
				float64(arr.ShareLoss-c.baseShare) - float64(arr.LeakLoss-c.baseLeak)
			total := float64(c.totalEnergy())
			tol := 1e-9 + 1e-6*math.Max(math.Abs(budget), math.Abs(total))
			if d := math.Abs(total - budget); d > tol {
				c.failf("energy-balance", e.T1, "stored %.12g J, books say %.12g J (Δ %.3g, tol %.3g)",
					total, budget, total-budget, tol)
			}
		},
	},
	{
		Name: "voltage-rating",
		Desc: "no bank voltage is negative or above its rated voltage (tolerance 1e-9 V)",
		Check: func(c *Checker, e sim.HookEvent) {
			arr := c.dev.Array
			for i := 0; i < arr.NumBanks(); i++ {
				b := arr.Bank(i)
				v := b.Voltage()
				if v < -1e-12 {
					c.failf("voltage-rating", e.T1, "bank %d (%s) at negative voltage %v", i, b.Name(), v)
				}
				if r := b.RatedVoltage(); r > 0 && float64(v) > float64(r)+1e-9 {
					c.failf("voltage-rating", e.T1, "bank %d (%s) at %v exceeds rating %v", i, b.Name(), v, r)
				}
			}
		},
	},
	{
		Name: "settled-set",
		Desc: "electrically connected banks share one terminal voltage (tolerance 1e-9 V)",
		Check: func(c *Checker, e sim.HookEvent) {
			arr := c.dev.Array
			v0 := arr.Bank(0).Voltage()
			for i := 1; i < arr.NumBanks(); i++ {
				if arr.Switch(i).Closed() {
					if v := arr.Bank(i).Voltage(); math.Abs(float64(v-v0)) > 1e-9 {
						c.failf("settled-set", e.T1, "active bank %d at %v, base at %v", i, v, v0)
					}
				}
			}
		},
	},
	{
		Name: "charge-conservation",
		Desc: "reconfiguration charge-sharing never creates charge or energy (tolerance 1e-9 relative); checked at every reconfig against the previous event's totals",
		Check: func(c *Checker, e sim.HookEvent) {
			if e.Kind != sim.HookReconfig {
				return
			}
			q, en := c.totalChargeEnergy()
			if qTol := 1e-12 + 1e-9*math.Abs(c.prevQ); q > c.prevQ+qTol {
				c.failf("charge-conservation", e.T1, "charge grew across reconfig: %.12g → %.12g C", c.prevQ, q)
			}
			if eTol := 1e-12 + 1e-9*math.Abs(c.prevE); en > c.prevE+eTol {
				c.failf("charge-conservation", e.T1, "energy grew across reconfig: %.12g → %.12g J", c.prevE, en)
			}
		},
	},
	{
		Name: "latch-consistency",
		Desc: "a switch differs from its programmed state iff its latch drained, and it then sits in its default state (exact)",
		Check: func(c *Checker, e sim.HookEvent) {
			arr := c.dev.Array
			if e.Kind == sim.HookReconfig || c.programmed == nil {
				// (Re)learn the programmed states at attach and at every
				// software reconfiguration.
				c.programmed = c.programmed[:0]
				for i := 1; i < arr.NumBanks(); i++ {
					c.programmed = append(c.programmed, arr.Switch(i).Closed())
				}
				return
			}
			for i := 1; i < arr.NumBanks(); i++ {
				sw := arr.Switch(i)
				prog := c.programmed[i-1]
				if sw.Closed() == prog {
					continue
				}
				// State changed without software: that is only legal as a
				// latch-expiry revert to the default state.
				def := sw.Kind == reservoir.NormallyClosed
				if sw.LatchVoltage() != 0 {
					c.failf("latch-consistency", e.T1,
						"switch %d flipped with a live latch (%v)", i, sw.LatchVoltage())
				} else if sw.Closed() != def {
					c.failf("latch-consistency", e.T1,
						"switch %d reverted to non-default state (closed=%v, kind=%v)", i, sw.Closed(), sw.Kind)
				}
				c.programmed[i-1] = sw.Closed()
			}
		},
	},
	{
		Name: "time-accounting",
		Desc: "TimeOn + TimeCharging + TimeOff equals the simulated clock (tolerance 1e-6 s + 1e-9 relative)",
		Check: func(c *Checker, e sim.HookEvent) {
			st := c.dev.Stats
			sum := float64(st.TimeOn + st.TimeCharging + st.TimeOff)
			now := float64(c.dev.Now())
			if d := math.Abs(sum - now); d > 1e-6+1e-9*now {
				c.failf("time-accounting", e.T1, "phase times sum to %.9g s, clock at %.9g s", sum, now)
			}
		},
	},
	{
		Name: "solver-cross-check",
		Desc: "the analytic charge solver agrees with small-step numerical integration on every charge segment (tolerance 0.05 V)",
		Check: func(c *Checker, e sim.HookEvent) {
			if e.Kind != sim.HookChargeSegment {
				return
			}
			c.crossCheck(e)
		},
	},
	{
		Name: "channel-atomicity",
		Desc: "task channels never expose partially-committed data (exact); asserted by the task-workload scenario and the task commit fuzz target",
	},
}

// Checker implements sim.Observer: after every simulator event it runs
// the invariant registry against the device state and records
// violations.
type Checker struct {
	// Trial and Seed label recorded violations.
	Trial int
	Seed  int64
	// MaxViolations bounds recorded violations per checker (default 8):
	// one genuine bug tends to fail every subsequent event, and the
	// first few reports carry all the signal.
	MaxViolations int

	dev     *sim.Device
	initial units.Energy
	baseInto, baseDrawn,
	baseShare, baseLeak units.Energy
	programmed []bool
	lastT      units.Seconds
	prevQ      float64
	prevE      float64

	// Events counts observed events; Checks counts executed assertions
	// per invariant.
	Events     int
	Checks     map[string]int
	Violations []Violation
}

// NewChecker builds a checker over d's current state. The caller wires
// it up (directly via d.Obs = c, or through a scenario observer that
// delegates).
func NewChecker(d *sim.Device, trial int, seed int64) *Checker {
	c := &Checker{Trial: trial, Seed: seed, dev: d, Checks: make(map[string]int)}
	c.initial = c.totalEnergy()
	c.baseInto = d.Stats.EnergyIntoStore
	c.baseDrawn = d.Stats.EnergyDrawn
	c.baseShare = d.Array.ShareLoss
	c.baseLeak = d.Array.LeakLoss
	c.lastT = d.Now()
	c.prevQ, c.prevE = c.totalChargeEnergy()
	return c
}

func (c *Checker) maxViolations() int {
	if c.MaxViolations > 0 {
		return c.MaxViolations
	}
	return 8
}

// Observe implements sim.Observer.
func (c *Checker) Observe(d *sim.Device, e sim.HookEvent) {
	c.dev = d
	c.Events++
	for i := range registry {
		inv := &registry[i]
		if inv.Check == nil {
			continue
		}
		if len(c.Violations) >= c.maxViolations() {
			break
		}
		inv.Check(c, e)
		c.Checks[inv.Name]++
	}
	if e.T1 > c.lastT {
		c.lastT = e.T1
	}
	c.prevQ, c.prevE = c.totalChargeEnergy()
}

// Failf records a violation found outside the registry (scenario-level
// assertions such as channel atomicity or scheduled-expiry checks).
func (c *Checker) Failf(name string, t units.Seconds, format string, args ...any) {
	c.Checks[name]++
	c.failf(name, t, format, args...)
}

func (c *Checker) failf(name string, t units.Seconds, format string, args ...any) {
	if len(c.Violations) >= c.maxViolations() {
		return
	}
	c.Violations = append(c.Violations, Violation{
		Trial: c.Trial, Seed: c.Seed, Invariant: name, T: t,
		Detail: fmt.Sprintf(format, args...),
	})
}

// totalEnergy sums stored energy across every bank, connected or not.
func (c *Checker) totalEnergy() units.Energy {
	var e units.Energy
	arr := c.dev.Array
	for i := 0; i < arr.NumBanks(); i++ {
		e += arr.Bank(i).Energy()
	}
	return e
}

// totalChargeEnergy sums charge (Q = C·V) and energy across every bank.
func (c *Checker) totalChargeEnergy() (q, e float64) {
	arr := c.dev.Array
	for i := 0; i < arr.NumBanks(); i++ {
		b := arr.Bank(i)
		q += float64(b.Capacitance()) * float64(b.Voltage())
		e += float64(b.Energy())
	}
	return q, e
}

// crossCheck re-integrates one analytic charge segment with small
// fixed steps and compares the end voltage. The segment contract
// (constant source output on [T0, T1)) is guaranteed by the solver's
// segmentation, so the reference integrator only has to re-sample the
// charge-path boundaries the analytic solve crossed in closed form.
func (c *Checker) crossCheck(e sim.HookEvent) {
	dt := e.T1 - e.T0
	if dt <= 1e-9 {
		return
	}
	set := c.dev.Store()
	cap_ := set.Capacitance()
	rated := set.RatedVoltage()
	steps := int(float64(dt) / 1e-3)
	if steps < 400 {
		steps = 400
	}
	if steps > 50_000 {
		steps = 50_000
	}
	step := dt / units.Seconds(steps)
	v := e.V0
	sys := c.dev.Sys
	for i := 0; i < steps; i++ {
		tt := e.T0 + step*units.Seconds(i)
		if p := sys.ChargePower(v, tt); p > 0 {
			v = units.ChargeVoltageAfter(cap_, v, p, step)
			if rated > 0 && v > rated {
				v = rated
			}
			if e.OK && v > e.V1 {
				// The analytic segment ended the instant the target was
				// hit; integration past it is crossing jitter.
				v = e.V1
			}
		}
	}
	if d := math.Abs(float64(v - e.V1)); d > 0.05 {
		c.failf("solver-cross-check", e.T1,
			"analytic %v, numeric %v after %v from %v (Δ %.4g V)", e.V1, v, dt, e.V0, d)
	}
}
