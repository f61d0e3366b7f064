package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/metrics"
	"capybara/internal/runner"
	"capybara/internal/units"
)

// Variants lists the evaluation systems in the paper's presentation
// order: Pwr, Fixed, CB-R, CB-P.
func Variants() []core.Variant {
	return []core.Variant{core.Continuous, core.Fixed, core.CapyR, core.CapyP}
}

// Matrix holds the full Fig. 8/9/11 run grid: every application under
// every power system, on one shared event schedule per application.
type Matrix struct {
	Seed int64
	// Runs indexes app name → variant → completed run.
	Runs map[string]map[core.Variant]*apps.Run
}

// RunMatrixParallel executes the complete evaluation grid, with the
// default schedules (§6.2: TA 50 events over 120 min; GRC and CSR 80
// events over 42 min) scaled by frac in (0, 1]. The same schedule
// drives every system of an application, as on the paper's testbed.
// It runs one job per app×variant cell
// fanned across jobs workers (<= 0 means every CPU, 1 forces the
// serial path). Each cell regenerates its application's schedule from
// the seed with a private *rand.Rand, so every system of an
// application sees the identical event sequence — as on the paper's
// testbed — without any RNG state shared between goroutines, and the
// resulting tables are byte-identical at any worker count.
func RunMatrixParallel(ctx context.Context, seed int64, frac float64, jobs int) (*Matrix, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("experiments: bad scale %g", frac)
	}
	type cell struct {
		name    string
		spec    apps.Spec
		variant core.Variant
	}
	var cells []cell
	for _, name := range apps.SpecNames() {
		spec, err := apps.SpecByName(name)
		if err != nil {
			return nil, err
		}
		for _, v := range Variants() {
			cells = append(cells, cell{name: name, spec: spec, variant: v})
		}
	}
	runs, err := runner.Map(ctx, jobs, len(cells), func(ctx context.Context, i int) (*apps.Run, error) {
		c := cells[i]
		n := scaledEvents(c.spec.Events, frac)
		sched := env.Poisson(rand.New(rand.NewSource(seed)), n, c.spec.Mean, c.spec.Window)
		run, err := c.spec.Build(c.variant, sched, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: build %s/%v: %w", c.name, c.variant, err)
		}
		if err := run.Execute(); err != nil {
			return nil, fmt.Errorf("experiments: run %s/%v: %w", c.name, c.variant, err)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	m := &Matrix{Seed: seed, Runs: make(map[string]map[core.Variant]*apps.Run)}
	for i, run := range runs {
		c := cells[i]
		if m.Runs[c.name] == nil {
			m.Runs[c.name] = make(map[core.Variant]*apps.Run, 4)
		}
		m.Runs[c.name][c.variant] = run
	}
	return m, nil
}

// scaledEvents scales an event count by frac, keeping at least one.
func scaledEvents(events int, frac float64) int {
	n := int(float64(events) * frac)
	if n < 1 {
		n = 1
	}
	return n
}

// AccuracyTable renders Figure 8 — event detection accuracy per
// application and system, broken down by outcome.
func (m *Matrix) AccuracyTable() *Table {
	t := &Table{
		Title: "Figure 8 — event detection accuracy",
		Header: []string{"app", "system", "correct", "misclassified",
			"proximity-only", "missed", "correct %"},
	}
	for _, name := range apps.SpecNames() {
		for _, v := range Variants() {
			run := m.Runs[name][v]
			if run == nil {
				continue
			}
			a := run.Accuracy()
			t.Rows = append(t.Rows, []string{
				name, v.String(),
				fmt.Sprint(a.Correct), fmt.Sprint(a.Misclassified),
				fmt.Sprint(a.ProximityOnly), fmt.Sprint(a.Missed),
				fmt.Sprintf("%.0f%%", 100*a.FractionCorrect()),
			})
		}
	}
	return t
}

// LatencyTable renders Figure 9 — report latency for detected events.
// The delayed column is the §6.3 measure: the fraction of reported
// events whose latency exceeds 2× the continuous baseline's median
// (those that paid a charge on the critical path).
func (m *Matrix) LatencyTable() *Table {
	t := &Table{
		Title:  "Figure 9 — report latency for detected events",
		Header: []string{"app", "system", "reported", "mean", "median", "p95", "max", "delayed"},
	}
	for _, name := range apps.SpecNames() {
		var baseline units.Seconds
		if cont := m.Runs[name][core.Continuous]; cont != nil {
			baseline = cont.Latency().Median
		}
		for _, v := range Variants() {
			run := m.Runs[name][v]
			if run == nil {
				continue
			}
			lats := run.Rec.Latencies()
			s := metrics.Summarize(lats)
			if s.Count == 0 {
				t.Rows = append(t.Rows, []string{name, v.String(), "0", "-", "-", "-", "-", "-"})
				continue
			}
			delayed := metrics.DelayedFraction(lats, 2*baseline)
			t.Rows = append(t.Rows, []string{
				name, v.String(), fmt.Sprint(s.Count),
				s.Mean.String(), s.Median.String(), s.P95.String(), s.Max.String(),
				fmt.Sprintf("%.0f%%", 100*delayed),
			})
		}
	}
	return t
}

// GapTable renders Figure 11 — the distribution of times between
// samples in the TempAlarm application for the three intermittent
// systems, split into back-to-back, clean, and events-missed intervals.
func (m *Matrix) GapTable() *Table {
	t := &Table{
		Title: "Figure 11 — distribution of times between samples (TempAlarm)",
		Header: []string{"system", "back-to-back", "clean", "missed-event",
			"median meaningful gap", "max gap"},
	}
	for _, v := range []core.Variant{core.Fixed, core.CapyR, core.CapyP} {
		run := m.Runs["TempAlarm"][v]
		if run == nil {
			continue
		}
		gaps := run.Gaps()
		counts := metrics.GapCounts(gaps)
		var meaningful []units.Seconds
		var max units.Seconds
		for _, g := range gaps {
			if g.Duration > max {
				max = g.Duration
			}
			if g.Class != metrics.BackToBack {
				meaningful = append(meaningful, g.Duration)
			}
		}
		s := metrics.Summarize(meaningful)
		t.Rows = append(t.Rows, []string{
			v.String(),
			fmt.Sprint(counts[metrics.BackToBack]),
			fmt.Sprint(counts[metrics.Clean]),
			fmt.Sprint(counts[metrics.MissedEvent]),
			s.Median.String(), max.String(),
		})
	}
	return t
}

// GapHistogram bins the meaningful (non-back-to-back) gaps of one
// TempAlarm system for Fig. 11's long-interval panel.
func (m *Matrix) GapHistogram(v core.Variant) *metrics.Histogram {
	run := m.Runs["TempAlarm"][v]
	h := metrics.NewHistogram(1, 5, 10, 60, 110, 160, 210, 260, 310)
	if run == nil {
		return h
	}
	for _, g := range run.Gaps() {
		h.Add(g.Duration)
	}
	return h
}
