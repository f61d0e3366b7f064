package main

import (
	"fmt"
	"runtime"
	"time"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/fleet"
	"capybara/internal/power"
	"capybara/internal/runner"
	"capybara/internal/storage"
	"capybara/internal/units"
)

// deviceSample is one device of the sampled device loop.
type deviceSample struct {
	schedule, build, execute time.Duration
	buildAllocs              uint64
}

// deviceLoop times env.Poisson, apps.Spec.Build and Run.Execute
// separately for devices of the workload's fleet job, built exactly as
// the fleet builds them (same schedule RNG, scale and cohort), for at
// least budget and minDevices devices. Only Steady cohorts qualify: the
// PWM and blackout scenario traces are unexported, so their devices
// cannot be rebuilt outside the fleet package. Devices run on the
// scalar device path with a per-cohort memo cache and recycled build
// scratch; the batch engine's share shows in the engine counts instead.
// Each executed non-continuous device is handed to probe.
func deviceLoop(s fleet.Spec, budget time.Duration, minDevices int, probe func(*apps.Run)) ([]deviceSample, error) {
	job, err := fleet.NewJob(config(s, 1))
	if err != nil {
		return nil, err
	}
	cohorts := job.Cohorts()
	memo := make([]*power.SegmentCache, len(cohorts))
	var scr apps.Scratch
	var ms runtime.MemStats
	var out []deviceSample
	start := time.Now()
	for d := 0; len(out) < minDevices || time.Since(start) < budget; d = (d + 1) % s.N {
		ci := d % len(cohorts)
		c := cohorts[ci]
		if c.Scenario != fleet.Steady {
			continue
		}
		spec, err := apps.SpecByName(c.App)
		if err != nil {
			return nil, err
		}
		n := int(float64(spec.Events) * s.Scale)
		if n < 1 {
			n = 1
		}
		if memo[ci] == nil {
			memo[ci] = power.NewSegmentCache(0)
		}
		var ds deviceSample
		t0 := time.Now()
		sched := env.Poisson(runner.RNG(s.Seed, d), n, spec.Mean, spec.Window)
		ds.schedule = time.Since(t0)
		scr.Reset()
		scr.Memo = memo[ci]
		// ReadMemStats flushes the per-P allocation counters, so the
		// count is exact; it stays outside the timed window.
		runtime.ReadMemStats(&ms)
		a0 := ms.Mallocs
		t0 = time.Now()
		run, err := spec.Build(c.Variant, sched, nil, &scr)
		ds.build = time.Since(t0)
		runtime.ReadMemStats(&ms)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", d, err)
		}
		ds.buildAllocs = ms.Mallocs - a0
		t0 = time.Now()
		if err := run.Execute(); err != nil {
			return nil, fmt.Errorf("device %d: %w", d, err)
		}
		ds.execute = time.Since(t0)
		out = append(out, ds)
		if c.Variant != core.Continuous {
			probe(run)
		}
	}
	return out, nil
}

// callCosts accumulates per-call costs, in nanoseconds, of each
// device-step layer's public entry point, measured on executed devices.
type callCosts map[string][]float64

// batch is how many calls one timing of a nanosecond-scale entry point
// covers, so the clock read is amortised.
const batch = 64

var sink float64

// probe times each layer's entry point on run's device, left in the
// state its lifecycle ended in. The device is discarded afterwards, so
// the calls may move its clock and charge.
func (cc callCosts) probe(run *apps.Run) {
	dev := run.Inst.Dev
	sys, st, arr := dev.Sys, dev.Store(), dev.Array
	t := dev.Now()

	t0 := time.Now()
	for i := 0; i < batch; i++ {
		sink += float64(sys.Source.PowerAt(t + units.Seconds(i)))
	}
	cc.add("harvest.sample_ns", time.Since(t0), batch)

	rated := st.RatedVoltage()
	v0 := st.Voltage()
	t0 = time.Now()
	for i := 0; i < batch; i++ {
		st.SetVoltage(rated / 2)
		dt, _ := sys.StepSegment(st, 0.9*rated, t, 1)
		sink += float64(dt)
	}
	cc.add("power.step_segment_ns", time.Since(t0), batch)
	st.SetVoltage(v0)

	vals, mask := arr.AppendState(nil)
	t0 = time.Now()
	for i := 0; i < batch; i++ {
		if arr.MatchState(vals, mask) {
			sink++
		}
	}
	cc.add("reservoir.match_state_ns", time.Since(t0), batch)

	if arr.NumBanks() > 1 {
		a, b := arr.Bank(0), arr.Bank(1)
		va, vb := a.Voltage(), b.Voltage()
		t0 = time.Now()
		for i := 0; i < batch; i++ {
			a.SetVoltage(va)
			b.SetVoltage(vb)
			sink += float64(storage.Connect(a, b))
		}
		cc.add("storage.connect_ns", time.Since(t0), batch)
		a.SetVoltage(va)
		b.SetVoltage(vb)
	}

	// Drain and ChargeTo advance the simulated clock, so each call is
	// timed on its own, alternating a short load burst with a recharge.
	for i := 0; i < 8; i++ {
		t0 = time.Now()
		dev.Drain(units.MilliWatt, 0.05)
		cc.add("sim.drain_ns", time.Since(t0), 1)
		t0 = time.Now()
		dev.ChargeTo(0.9*st.RatedVoltage(), 60)
		cc.add("sim.charge_to_ns", time.Since(t0), 1)
	}
}

func (cc callCosts) add(name string, d time.Duration, calls int) {
	cc[name] = append(cc[name], float64(d.Nanoseconds())/float64(calls))
}
