// Capysim runs one of the paper's applications on one power system and
// reports accuracy, latency, and sampling behaviour; it can also dump
// the storage-voltage trace as CSV for plotting.
//
// Usage:
//
//	capysim -app TempAlarm -system Capy-P [-events 50] [-mean 144] [-seed 42] [-trace out.csv]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/metrics"
	"capybara/internal/sim"
	"capybara/internal/units"
)

func main() {
	app := flag.String("app", "TempAlarm", "application: "+strings.Join(apps.SpecNames(), ", "))
	system := flag.String("system", "Capy-P", "power system: Cont, Fixed, Capy-R, Capy-P")
	events := flag.Int("events", 0, "number of events (0 = the app's default)")
	mean := flag.Float64("mean", 0, "mean event inter-arrival seconds (0 = default)")
	seed := flag.Int64("seed", 42, "schedule seed")
	tracePath := flag.String("trace", "", "write the voltage trace CSV here")
	timeline := flag.Int("timeline", 0, "print the last N device events (boots, brownouts, reconfigs)")
	flag.Parse()

	if err := run(*app, *system, *events, *mean, *seed, *tracePath, *timeline); err != nil {
		fmt.Fprintln(os.Stderr, "capysim:", err)
		os.Exit(1)
	}
}

func parseVariant(s string) (core.Variant, error) {
	for _, v := range []core.Variant{core.Continuous, core.Fixed, core.CapyR, core.CapyP} {
		if strings.EqualFold(v.String(), s) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown system %q (want Cont, Fixed, Capy-R, or Capy-P)", s)
}

func run(app, system string, events int, mean float64, seed int64, tracePath string, timeline int) error {
	spec, err := apps.SpecByName(app)
	if err != nil {
		return err
	}
	variant, err := parseVariant(system)
	if err != nil {
		return err
	}
	if events <= 0 {
		events = spec.Events
	}
	m := spec.Mean
	if mean > 0 {
		m = units.Seconds(mean)
	}
	sched := env.Poisson(rand.New(rand.NewSource(seed)), events, m, spec.Window)

	var trace *sim.Trace
	if tracePath != "" {
		trace = &sim.Trace{MinInterval: 0.1}
	}
	r, err := spec.Build(variant, sched, trace, nil)
	if err != nil {
		return err
	}
	if timeline > 0 {
		r.Inst.Dev.Log = &sim.EventLog{}
	}
	if err := r.Execute(); err != nil {
		return err
	}

	fmt.Printf("%s on %s: %d events over %v (mean inter-arrival %v)\n",
		r.Name, r.Variant, events, sched.Horizon(), sched.MeanInterarrival())
	fmt.Printf("  accuracy: %v\n", r.Accuracy())
	fmt.Printf("  latency:  %v\n", r.Latency())
	gaps := r.Gaps()
	counts := metrics.GapCounts(gaps)
	fmt.Printf("  sampling: %d samples; gaps back-to-back %d, clean %d, missed-event %d\n",
		len(r.Rec.Samples()), counts[metrics.BackToBack], counts[metrics.Clean], counts[metrics.MissedEvent])
	st := r.Inst.Dev.Stats
	fmt.Printf("  device:   boots %d, brownouts %d, on %v, charging %v, off %v\n",
		st.Boots, st.Brownouts, st.TimeOn, st.TimeCharging, st.TimeOff)
	fmt.Printf("  runtime:  reconfigurations %d, precharges %d, task restarts %d\n",
		r.Inst.Runtime.Reconfigs, r.Inst.Runtime.Precharges, r.Inst.Engine.Restarts)

	if trace != nil {
		if err := writeTrace(tracePath, trace); err != nil {
			return err
		}
		fmt.Printf("  trace:    %d samples written to %s\n", len(trace.Samples), tracePath)
	}
	if timeline > 0 {
		events := r.Inst.Dev.Log.Events()
		if len(events) > timeline {
			events = events[len(events)-timeline:]
		}
		fmt.Printf("  timeline (last %d events):\n", len(events))
		for _, e := range events {
			fmt.Printf("    %v\n", e)
		}
	}
	return nil
}

// writeTrace writes the trace as CSV to path. The file's Close error is
// returned when nothing failed before it: it is where a failed
// write-back (NFS, quota) surfaces.
func writeTrace(path string, tr *sim.Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := fmt.Fprintln(f, "t_seconds,voltage,phase"); err != nil {
		return err
	}
	for _, s := range tr.Samples {
		if _, err := fmt.Fprintf(f, "%.3f,%.4f,%s\n", float64(s.T), float64(s.V), s.Phase); err != nil {
			return err
		}
	}
	return nil
}
