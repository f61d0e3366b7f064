package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/runner"
	"capybara/internal/units"
)

// Figure 10 — sensitivity of accuracy to event inter-arrival times:
// event sequences drawn from Poisson distributions with decreasing
// means. The farther apart the events, the more are recognized; a lower
// event frequency does not help a fixed-capacity system as much as it
// helps Capybara.

// Fig10Point is one (mean inter-arrival, system) accuracy sample.
type Fig10Point struct {
	Mean     units.Seconds
	Variant  core.Variant
	Reported float64 // fraction of events reported (correct + misclassified)
}

// Fig10Config parameterizes a sensitivity sweep.
type Fig10Config struct {
	App      string
	Means    []units.Seconds
	Events   int
	Variants []core.Variant
	Seed     int64
	// Jobs is the worker count for the sweep: <= 0 means every CPU,
	// 1 forces the serial path. The points are identical either way.
	Jobs int
}

// TASensitivity returns the paper's TempAlarm sweep configuration
// (means 100–400 s across Pwr, Fixed, CB-R, CB-P).
func TASensitivity() Fig10Config {
	return Fig10Config{
		App:      "TempAlarm",
		Means:    []units.Seconds{100, 150, 200, 250, 300, 350, 400},
		Events:   50,
		Variants: Variants(),
		Seed:     DefaultSeed,
	}
}

// GRCSensitivity returns the paper's GestureFast sweep (means 10–30 s
// across Pwr, Fixed, CB-P; Capy-R reports no gestures and is omitted,
// as in the paper's Fig. 10).
func GRCSensitivity() Fig10Config {
	return Fig10Config{
		App:      "GestureFast",
		Means:    []units.Seconds{10, 15, 20, 25, 30},
		Events:   80,
		Variants: []core.Variant{core.Continuous, core.Fixed, core.CapyP},
		Seed:     DefaultSeed,
	}
}

// Figure10Ctx executes a sensitivity sweep with one job per
// (mean, variant) point. Each job regenerates its mean's schedule from
// cfg.Seed with a private *rand.Rand, so no RNG state crosses
// goroutines and the points come back in sweep order at any worker
// count.
func Figure10Ctx(ctx context.Context, cfg Fig10Config) ([]Fig10Point, error) {
	spec, err := apps.SpecByName(cfg.App)
	if err != nil {
		return nil, err
	}
	return runner.Map(ctx, cfg.Jobs, len(cfg.Means)*len(cfg.Variants),
		func(ctx context.Context, i int) (Fig10Point, error) {
			mean := cfg.Means[i/len(cfg.Variants)]
			v := cfg.Variants[i%len(cfg.Variants)]
			sched := env.Poisson(rand.New(rand.NewSource(cfg.Seed)), cfg.Events, mean, spec.Window)
			run, err := spec.Build(v, sched, nil, nil)
			if err != nil {
				return Fig10Point{}, err
			}
			if err := run.Execute(); err != nil {
				return Fig10Point{}, err
			}
			a := run.Accuracy()
			reported := float64(a.Correct+a.Misclassified) / float64(a.Total)
			return Fig10Point{Mean: mean, Variant: v, Reported: reported}, nil
		})
}

// Fig10Table renders a sensitivity sweep with one row per mean and one
// column per system.
func Fig10Table(cfg Fig10Config, points []Fig10Point) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 10 — accuracy vs mean event inter-arrival (%s)", cfg.App),
		Header: []string{"mean inter-arrival"},
	}
	for _, v := range cfg.Variants {
		t.Header = append(t.Header, v.String())
	}
	byKey := make(map[string]float64, len(points))
	for _, p := range points {
		byKey[fmt.Sprintf("%v/%v", p.Mean, p.Variant)] = p.Reported
	}
	for _, mean := range cfg.Means {
		row := []string{mean.String()}
		for _, v := range cfg.Variants {
			row = append(row, fmt.Sprintf("%.2f", byKey[fmt.Sprintf("%v/%v", mean, v)]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
