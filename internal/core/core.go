// Package core implements the Capybara runtime (paper §4): the mapping
// from declarative task energy modes to reservoir configurations, and
// the power-management policy that reconfigures the hardware, pauses to
// charge, and pre-charges energy bursts.
//
// The runtime is a task.PowerManager. Four variants are provided,
// matching the paper's evaluation systems (§6):
//
//   - Continuous — the continuously-powered reference board;
//   - Fixed — a statically-provisioned, fixed-capacity power system;
//   - CapyR — Capybara without burst support: every reconfiguration
//     recharges on the critical path;
//   - CapyP — complete Capybara with preburst/burst pre-charging.
package core

import (
	"fmt"

	"capybara/internal/device"
	"capybara/internal/harvest"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/sim"
	"capybara/internal/storage"
	"capybara/internal/task"
	"capybara/internal/units"
)

// DefaultVTop is the default charge-complete voltage for a mode. The
// input booster regulates bank charging to this setpoint unless a mode
// overrides it.
const DefaultVTop units.Voltage = 2.4

// Mode binds an energy-mode identifier to a concrete reservoir
// configuration: which banks are active and how high they charge.
type Mode struct {
	Name task.EnergyMode
	// Mask selects the active banks (bit 0 is the always-on base
	// bank; the runtime sets it implicitly).
	Mask uint64
	// VTop is the charge-complete voltage; zero means DefaultVTop.
	VTop units.Voltage
}

func (m Mode) vTop() units.Voltage {
	if m.VTop > 0 {
		return m.VTop
	}
	return DefaultVTop
}

// ModeTable indexes modes by name.
type ModeTable map[task.EnergyMode]Mode

// NewModeTable validates and indexes modes.
func NewModeTable(modes ...Mode) (ModeTable, error) {
	t := make(ModeTable, len(modes))
	for _, m := range modes {
		if m.Name == task.ModeNone {
			return nil, fmt.Errorf("core: mode with empty name")
		}
		if _, dup := t[m.Name]; dup {
			return nil, fmt.Errorf("core: duplicate mode %q", m.Name)
		}
		t[m.Name] = m
	}
	return t, nil
}

// Variant selects the power-management policy.
type Variant int

const (
	// Continuous is the continuously-powered reference board ("Pwr").
	Continuous Variant = iota
	// Fixed is the statically-provisioned fixed-capacity baseline.
	Fixed
	// CapyR is Capybara without burst support (recharges after every
	// reconfiguration, §6: "Capy-R").
	CapyR
	// CapyP is the complete Capybara system ("Capy-P").
	CapyP
)

func (v Variant) String() string {
	switch v {
	case Continuous:
		return "Cont"
	case Fixed:
		return "Fixed"
	case CapyR:
		return "Capy-R"
	default:
		return "Capy-P"
	}
}

// Runtime is the Capybara runtime system: it reconfigures the reservoir
// to match task energy modes and manages charge pauses. It implements
// task.PowerManager.
type Runtime struct {
	Dev     *sim.Device
	Modes   ModeTable
	Variant Variant

	// order is Config.Modes in declaration order: where several modes
	// match one bank mask, the first declared decides the bring-up
	// charge target (ranging over Modes, a map, picked one at random).
	order []Mode

	// Reconfigs counts explicit mode reconfigurations; Precharges
	// counts preburst charge-ahead operations.
	Reconfigs  int
	Precharges int

	// modeMemo memoizes recent ModeTable lookups. The table is fixed
	// after New and the task loop resolves the same one or two mode
	// names for long stretches (a preburst task probes its burst and
	// exec modes every iteration), so the map probe on every task
	// iteration collapses to a couple of string compares.
	modeMemo [2]struct {
		name task.EnergyMode
		m    Mode
		ok   bool
	}
	modeNext uint8
}

// mode resolves name against the mode table through the memo.
func (r *Runtime) mode(name task.EnergyMode) (Mode, bool) {
	for i := range r.modeMemo {
		if e := &r.modeMemo[i]; e.name == name {
			return e.m, e.ok
		}
	}
	m, ok := r.Modes[name]
	e := &r.modeMemo[r.modeNext]
	r.modeNext = 1 - r.modeNext
	e.name, e.m, e.ok = name, m, ok
	return m, ok
}

var _ task.PowerManager = (*Runtime)(nil)

// Prepare implements task.PowerManager.
func (r *Runtime) Prepare(t *task.Task, alive bool, deadline units.Seconds) bool {
	if r.Variant == Continuous {
		if !alive {
			return r.Dev.Boot()
		}
		return true
	}
	if !alive && !r.bringUp(deadline) {
		return false
	}
	switch r.Variant {
	case Fixed:
		// A fixed power system has nothing to reconfigure: the device
		// runs until the buffer empties, then bringUp recharges it.
		return true
	case CapyR:
		return r.prepareCapyR(t, deadline)
	default:
		return r.prepareCapyP(t, deadline)
	}
}

// bringUp restores an off device: charge whatever configuration is
// physically active (which after a long outage may be the switches'
// default, not what software last configured — §5.2), then boot.
func (r *Runtime) bringUp(deadline units.Seconds) bool {
	for r.Dev.Now() < deadline {
		target := r.activeVTop()
		if _, ok := r.Dev.ChargeTo(target, deadline-r.Dev.Now()); !ok {
			return false
		}
		if r.Dev.Boot() {
			return true
		}
	}
	return false
}

// activeVTop returns the charge target for the physically-active
// configuration: the VTop of the first declared mode whose mask matches
// it, or the default.
func (r *Runtime) activeVTop() units.Voltage {
	mask := r.Dev.Array.ActiveMask() &^ 1
	for _, m := range r.order {
		if m.Mask&^1 == mask {
			return m.vTop()
		}
	}
	return DefaultVTop
}

// effectiveMode resolves which mode a task runs in under Capy-R, which
// lacks burst support: burst degrades to config on the burst mode, and
// preburst degrades to config on the exec mode (no charging ahead).
func effectiveModeCapyR(t *task.Task) task.EnergyMode {
	switch {
	case t.Burst != task.ModeNone:
		return t.Burst
	case t.PreburstExec != task.ModeNone:
		return t.PreburstExec
	default:
		return t.Config
	}
}

func (r *Runtime) prepareCapyR(t *task.Task, deadline units.Seconds) bool {
	name := effectiveModeCapyR(t)
	if name == task.ModeNone {
		return true
	}
	m, ok := r.mode(name)
	if !ok {
		return true // unmapped mode: run on the current configuration
	}
	return r.enterMode(m, m.vTop(), deadline)
}

func (r *Runtime) prepareCapyP(t *task.Task, deadline units.Seconds) bool {
	// Burst: re-activate the pre-charged banks and run immediately —
	// no charge pause (§4.2).
	if t.Burst != task.ModeNone {
		if m, ok := r.mode(t.Burst); ok {
			r.configure(m.Mask)
		}
		return true
	}
	// Preburst: charge the burst mode ahead of time, then configure
	// and charge the exec mode, then run (§4.2's four steps).
	if t.PreburstBurst != task.ModeNone {
		bm, okB := r.mode(t.PreburstBurst)
		em, okE := r.mode(t.PreburstExec)
		ceiling := bm.vTop() - reservoir.PrechargeDeficit
		if okB {
			// The switch circuit can pre-charge a bank only to a
			// strictly lower voltage than a direct charge (§6.4).
			if !r.enterMode(bm, ceiling, deadline) {
				return false
			}
			r.Precharges++
		}
		if okE {
			if !r.enterMode(em, em.vTop(), deadline) {
				return false
			}
		}
		if okB && okE {
			// The same switch-circuit limitation bounds what a
			// deactivated bank can hold through its pre-charge path:
			// charge-sharing with the exec banks cannot pump it above
			// the ceiling.
			for i := 1; i < r.Dev.Array.NumBanks(); i++ {
				bit := uint64(1) << uint(i)
				if bm.Mask&bit == 0 || em.Mask&bit != 0 {
					continue
				}
				if b := r.Dev.Array.Bank(i); b.Voltage() > ceiling {
					b.SetVoltage(ceiling)
				}
			}
		}
		return true
	}
	if t.Config != task.ModeNone {
		if m, ok := r.mode(t.Config); ok {
			return r.enterMode(m, m.vTop(), deadline)
		}
	}
	return true
}

// enterMode reconfigures to mode m (if needed) and pauses to charge the
// newly configured buffer to target. When the configuration is already
// active no pause occurs: the device keeps running on its remaining
// charge.
func (r *Runtime) enterMode(m Mode, target units.Voltage, deadline units.Seconds) bool {
	want := m.Mask | 1
	if r.Dev.Array.ActiveMask() == want {
		return true
	}
	r.configure(want)
	for r.Dev.Now() < deadline {
		elapsed, ok := r.Dev.ChargeTo(target, deadline-r.Dev.Now())
		if !ok {
			return false
		}
		if elapsed == 0 {
			// The configuration was already charged: no pause, the
			// processor never powered down, no reboot needed.
			return true
		}
		// Charging happened with the processor off; boot back up. A
		// failed boot (e.g. a switch reverted mid-charge and shrank the
		// buffer) loops back to recharge.
		if r.Dev.Boot() {
			return true
		}
	}
	return false
}

func (r *Runtime) configure(mask uint64) {
	if err := r.Dev.Configure(mask | 1); err != nil {
		// Masks are validated when the instance is built; an error here
		// is a programming bug, not a runtime condition.
		panic(fmt.Sprintf("core: reconfiguration failed: %v", err))
	}
	r.Reconfigs++
}

// Config assembles a complete platform: harvester, banks, MCU, modes,
// and the runtime variant.
type Config struct {
	Variant Variant
	Source  harvest.Source
	MCU     device.MCU
	// Base is the always-connected bank; Switched are the banks behind
	// reconfiguration switches (bank i is addressed by mask bit i+1).
	Base     *storage.Bank
	Switched []*storage.Bank
	// SwitchKind picks the switches' unpowered default (NO or NC).
	SwitchKind reservoir.SwitchKind
	// Modes declares the platform's energy modes.
	Modes []Mode
	// Trace, when non-nil, records the voltage trajectory.
	Trace *sim.Trace
	// Tune adjusts the power system after construction (optional).
	Tune func(*power.System)
}

// Instance is a ready-to-run platform: device, runtime, and engine.
type Instance struct {
	Dev     *sim.Device
	Runtime *Runtime
	Engine  *task.Engine
}

// New builds an Instance executing prog on the configured platform. It
// validates that every mode annotation in the program resolves and that
// every mode's mask addresses real banks.
func New(cfg Config, prog *task.Program) (*Instance, error) {
	modes, err := NewModeTable(cfg.Modes...)
	if err != nil {
		return nil, err
	}
	arr := reservoir.NewArray(cfg.Base, cfg.SwitchKind, cfg.Switched...)
	for _, m := range modes {
		if (m.Mask|1)>>uint(arr.NumBanks()) != 0 {
			return nil, fmt.Errorf("core: mode %q mask %#x exceeds %d banks", m.Name, m.Mask, arr.NumBanks())
		}
	}
	for _, name := range prog.Names() {
		t, _ := prog.Task(name)
		for _, ref := range []task.EnergyMode{t.Config, t.Burst, t.PreburstBurst, t.PreburstExec} {
			if ref != task.ModeNone {
				if _, ok := modes[ref]; !ok {
					return nil, fmt.Errorf("core: task %s references undefined mode %q", name, ref)
				}
			}
		}
	}
	sys := power.NewSystem(cfg.Source)
	if cfg.Tune != nil {
		cfg.Tune(sys)
	}
	dev := sim.NewDevice(sys, arr, cfg.MCU)
	dev.Continuous = cfg.Variant == Continuous
	dev.Trace = cfg.Trace
	rt := &Runtime{Dev: dev, Modes: modes, Variant: cfg.Variant, order: append([]Mode(nil), cfg.Modes...)}
	eng := task.NewEngine(dev, prog, rt)
	return &Instance{Dev: dev, Runtime: rt, Engine: eng}, nil
}

// Run executes the instance until horizon.
func (i *Instance) Run(horizon units.Seconds) error {
	return i.Engine.Run(horizon)
}
