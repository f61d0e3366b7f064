package core

import (
	"fmt"
	"math"
	"sort"

	"capybara/internal/harvest"
	"capybara/internal/power"
	"capybara/internal/storage"
	"capybara/internal/task"
	"capybara/internal/units"
)

// This file implements the paper's stated future work (§8): "automate
// energy capacity estimation for application tasks and find an
// allocation of capacitors to banks for a set of task energy
// requirements."
//
// The planner turns a set of task demands into a minimal prefix-
// structured bank array: banks are sized so that the demands, sorted by
// energy, map onto growing prefixes of the array. Demand i activates
// banks 0..i, so any task's mode is expressible with the switch
// hardware, smaller modes recharge faster (the reactivity requirement),
// and no capacitance is duplicated across modes.

// TaskDemand describes one task's requirements of the power system.
type TaskDemand struct {
	// Name identifies the demand; the planned mode reuses it.
	Name string
	// Load is the draw at the regulated output while the task runs.
	Load units.Power
	// Duration is the task's atomic duration.
	Duration units.Seconds
	// MaxRecharge, when positive, is the temporal constraint: the
	// longest tolerable recharge interval before the task can run
	// (again). Reactive burst tasks are exempt — their recharge is paid
	// off the critical path.
	MaxRecharge units.Seconds
	// Reactive marks a burst task (capacity constraint only; the
	// preburst mechanism hides its recharge latency).
	Reactive bool
}

// Energy returns the storage-side energy the demand requires on sys,
// with the planner's safety margin applied.
func (d TaskDemand) Energy(sys *power.System) units.Energy {
	raw := float64(sys.StoreDraw(d.Load)) * float64(d.Duration)
	return units.Energy(raw * (1 + planMargin))
}

// planMargin is the derating margin applied to every demand (§3's
// standard practice).
const planMargin = 0.2

// Plan is a derived provisioning: an ordered bank array plus one mode
// per demand, where demand i's mode activates a prefix of the array.
type Plan struct {
	// Banks is the array; Banks[0] is the always-connected base bank.
	Banks []*storage.Bank
	// Modes holds one mode per demand, named after it.
	Modes []Mode
	// VTop is the charge-complete voltage all modes share.
	VTop units.Voltage
	// RechargeTimes estimates each mode's full recharge interval at
	// the harvester's average power.
	RechargeTimes map[string]units.Seconds
}

// TotalCapacitance sums the planned array.
func (p *Plan) TotalCapacitance() units.Capacitance {
	return storage.CombinedCapacitance(p.Banks)
}

// TotalVolume sums the planned array's board volume.
func (p *Plan) TotalVolume() units.Volume {
	var v units.Volume
	for _, b := range p.Banks {
		v += b.Volume()
	}
	return v
}

// PlanModes derives a bank array and mode table for the demands, built
// from units of tech, charged to vtop (0 = DefaultVTop). It returns an
// error when a demand is infeasible — its energy cannot be banked at
// this voltage and technology, or its temporal constraint cannot be met
// at the harvester's average power.
func PlanModes(sys *power.System, tech storage.Technology, demands []TaskDemand, vtop units.Voltage) (*Plan, error) {
	if len(demands) == 0 {
		return nil, fmt.Errorf("core: no demands to plan for")
	}
	if vtop <= 0 {
		vtop = DefaultVTop
	}
	if tech.RatedVoltage > 0 && vtop > tech.RatedVoltage {
		return nil, fmt.Errorf("core: vtop %v exceeds %s rating %v", vtop, tech.Name, tech.RatedVoltage)
	}

	sorted := make([]TaskDemand, len(demands))
	copy(sorted, demands)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Energy(sys) < sorted[j].Energy(sys)
	})

	avgPower := harvest.AveragePower(sys.Source, units.Hour, 3600)
	chargePower := units.Power(float64(avgPower) * sys.In.Efficiency)

	plan := &Plan{VTop: vtop, RechargeTimes: make(map[string]units.Seconds, len(sorted))}
	var cumulative units.Capacitance
	eff := sys.Out.Efficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	for i, d := range sorted {
		// Capacitance whose usable band at this load holds the energy:
		// E = η·½·C·(Vtop² − Vcut²). The cutoff depends on the combined
		// ESR, which depends on the unit count — iterate to fixpoint.
		need := float64(d.Energy(sys)) / eff
		count := cumulativeUnits(cumulative, tech) // start from what we have
		if count < 1 {
			count = 1
		}
		for iter := 0; iter < 64; iter++ {
			esr := tech.UnitESR / units.Resistance(count)
			cut := sys.CutoffVoltage(esr, d.Load)
			if cut >= vtop {
				count *= 2
				if count > 1<<22 {
					return nil, fmt.Errorf("core: demand %q (%v for %v) infeasible with %s at %v: ESR strands the energy",
						d.Name, d.Load, d.Duration, tech.Name, vtop)
				}
				continue
			}
			band := 0.5 * (float64(vtop)*float64(vtop) - float64(cut)*float64(cut))
			wantC := need / band
			wantUnits := int(math.Ceil(wantC / float64(tech.UnitCap)))
			if wantUnits <= count {
				break
			}
			count = wantUnits
		}
		totalC := tech.UnitCap * units.Capacitance(count)
		if totalC < cumulative {
			totalC = cumulative // an earlier, bigger demand already covers it
		}

		// Temporal constraint: the mode's full recharge at average
		// harvested power must fit, unless the demand is reactive.
		recharge := units.TimeToCharge(totalC, sys.Out.MinInput, vtop, chargePower)
		if !d.Reactive && d.MaxRecharge > 0 && recharge > d.MaxRecharge {
			return nil, fmt.Errorf("core: demand %q needs recharge ≤ %v but the %v mode takes %v at %v harvested",
				d.Name, d.MaxRecharge, totalC, recharge, avgPower)
		}
		plan.RechargeTimes[d.Name] = recharge

		// The bank for this tier holds the increment over the previous
		// tier. A zero increment means the demand shares the previous
		// tier's mask.
		if inc := totalC - cumulative; inc > 0 || len(plan.Banks) == 0 {
			n := int(math.Ceil(float64(inc) / float64(tech.UnitCap)))
			if n < 1 {
				n = 1
			}
			bank := storage.MustBank(fmt.Sprintf("tier%d", len(plan.Banks)), storage.GroupOf(tech, n))
			plan.Banks = append(plan.Banks, bank)
			cumulative += bank.Capacitance()
		}
		mask := prefixMask(len(plan.Banks))
		plan.Modes = append(plan.Modes, Mode{Name: task.EnergyMode(d.Name), Mask: mask, VTop: vtop})
		_ = i
	}
	return plan, nil
}

// prefixMask returns the mask activating banks 0..n-1 (bit 0 is the
// base bank, implied; bits 1.. are switched banks).
func prefixMask(n int) uint64 {
	if n <= 1 {
		return 1
	}
	return (uint64(1) << uint(n)) - 1
}

func cumulativeUnits(c units.Capacitance, tech storage.Technology) int {
	if tech.UnitCap <= 0 {
		return 0
	}
	return int(float64(c) / float64(tech.UnitCap))
}
