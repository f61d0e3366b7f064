package core

import (
	"fmt"

	"capybara/internal/power"
	"capybara/internal/storage"
	"capybara/internal/units"
)

// Provision finds the smallest bank of tech units that lets a load
// drawing load watts for duration seconds run to completion from vtop,
// on power system sys. It implements the paper's provisioning
// methodology (§3, §6.1): "we ran the task while progressively
// increasing the capacity on the board until the task completed" —
// exponential growth followed by a binary search for the minimum.
func Provision(sys *power.System, tech storage.Technology, load units.Power, duration units.Seconds, vtop units.Voltage) (storage.Group, error) {
	if vtop <= 0 {
		vtop = DefaultVTop
	}
	completes := func(n int) bool {
		b := storage.MustBank("trial", storage.GroupOf(tech, n))
		b.SetVoltage(vtop) // SetVoltage clamps at the rated voltage
		_, ok := sys.Discharge(b, load, duration)
		return ok
	}
	// Exponential growth until the task completes.
	const maxUnits = 1 << 20
	hi := 1
	for ; hi <= maxUnits; hi *= 2 {
		if completes(hi) {
			break
		}
	}
	if hi > maxUnits {
		return storage.Group{}, fmt.Errorf(
			"core: task (%v for %v) infeasible with %s even at %d units — ESR or voltage limits the extraction",
			load, duration, tech.Name, maxUnits)
	}
	// Binary search for the minimal count in (hi/2, hi].
	lo := hi / 2 // known to fail (or 0)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if completes(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return storage.GroupOf(tech, hi), nil
}

// Derate over-provisions a group by margin (e.g. 0.2 for +20 %) to
// account for capacitor aging — the standard derating practice §3
// mentions.
func Derate(g storage.Group, margin float64) storage.Group {
	if margin <= 0 {
		return g
	}
	n := int(float64(g.Count)*(1+margin) + 0.999999)
	if n == g.Count {
		n++
	}
	return storage.GroupOf(g.Tech, n)
}
