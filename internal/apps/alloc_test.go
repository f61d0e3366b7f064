package apps

import (
	"testing"

	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/units"
)

// TestSteadyAttemptsAllocFree guards the device-step hot path: once a
// lifecycle has grown its buffers, steady attempts of a self-looping
// task allocate nothing. GRC's sense task on Fixed covers the engine
// loop, the power manager and the drain; TempAlarm's sample task on
// Continuous adds the sliding float series it reads, extends and
// writes back on every attempt.
func TestSteadyAttemptsAllocFree(t *testing.T) {
	for _, tc := range []struct {
		app, task string
		variant   core.Variant
		// window is the simulated time one measured Run covers: a boot
		// (on Fixed, first a recharge to the top voltage), then tens of
		// attempts.
		window units.Seconds
	}{
		{"GestureFast", "sense", core.Fixed, 10},
		{"TempAlarm", "sample", core.Continuous, 2},
	} {
		t.Run(tc.app+"/"+tc.variant.String(), func(t *testing.T) {
			spec, err := SpecByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			// One event, late: until then the self-looping task is all
			// that runs.
			const eventAt = 1200
			sched := env.Schedule{Events: []env.Event{{Index: 0, At: eventAt, Window: spec.Window}}}
			var scr Scratch
			// A first lifecycle grows the recorder's sample slice; the
			// measured run reuses it, as recycled fleet scratch does.
			warm, err := spec.Build(tc.variant, sched, nil, &scr)
			if err != nil {
				t.Fatal(err)
			}
			if err := warm.Execute(); err != nil {
				t.Fatal(err)
			}
			scr.Reset()
			run, err := spec.Build(tc.variant, sched, nil, &scr)
			if err != nil {
				t.Fatal(err)
			}
			eng := run.Inst.Engine
			if err := eng.Run(600); err != nil {
				t.Fatal(err)
			}
			p := eng.Profile[tc.task]
			if p == nil {
				t.Fatalf("no %s attempts in the warm-up", tc.task)
			}
			before := p.Runs + p.Failures
			allocs := testing.AllocsPerRun(20, func() {
				if err := eng.Run(eng.Dev.Now() + tc.window); err != nil {
					t.Fatal(err)
				}
			})
			attempts := p.Runs + p.Failures - before
			if len(eng.Profile) != 1 || eng.Dev.Now() >= eventAt || attempts < 100 {
				t.Fatalf("measured %d %s attempts up to t=%v with tasks %d; want only steady attempts",
					attempts, tc.task, eng.Dev.Now(), len(eng.Profile))
			}
			if allocs != 0 {
				t.Fatalf("%v allocations per %v of steady %s attempts (%d attempts measured)",
					allocs, tc.window, tc.task, attempts)
			}
		})
	}
}
