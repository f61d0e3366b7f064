package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/runner"
)

// Multi-seed robustness: the paper evaluates one event sequence per
// experiment; here the same applications run over several independent
// Poisson draws so the Fig. 8 conclusions carry error bars.

// SeedStats aggregates one (application, system) cell across seeds.
type SeedStats struct {
	App     string
	Variant core.Variant
	Seeds   int
	// Mean, Min, Max, and Stddev of the correct fraction.
	Mean, Min, Max, Stddev float64
}

// MultiSeedParallel runs app under each variant for every seed and
// aggregates the correct fraction; events scale by frac in (0, 1]. It
// runs the variant×seed grid with one job per cell
// fanned across jobs workers (<= 0 means every CPU, 1 forces the
// serial path). Each cell regenerates its schedule from its own seed
// with a private *rand.Rand, and the per-variant aggregation sums the
// correct fractions in seed order, so the statistics are bit-identical
// at any worker count.
func MultiSeedParallel(ctx context.Context, app string, variants []core.Variant, seeds []int64, frac float64, jobs int) ([]SeedStats, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("experiments: bad scale %g", frac)
	}
	spec, err := apps.SpecByName(app)
	if err != nil {
		return nil, err
	}
	n := scaledEvents(spec.Events, frac)
	fractions, err := runner.Map(ctx, jobs, len(variants)*len(seeds),
		func(ctx context.Context, i int) (float64, error) {
			v := variants[i/len(seeds)]
			seed := seeds[i%len(seeds)]
			sched := env.Poisson(rand.New(rand.NewSource(seed)), n, spec.Mean, spec.Window)
			run, err := spec.Build(v, sched, nil, nil)
			if err != nil {
				return 0, err
			}
			if err := run.Execute(); err != nil {
				return 0, err
			}
			return run.Accuracy().FractionCorrect(), nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]SeedStats, 0, len(variants))
	for vi, v := range variants {
		stats := SeedStats{App: app, Variant: v, Seeds: len(seeds), Min: math.Inf(1), Max: math.Inf(-1)}
		var sum, sumSq float64
		for _, f := range fractions[vi*len(seeds) : (vi+1)*len(seeds)] {
			sum += f
			sumSq += f * f
			stats.Min = math.Min(stats.Min, f)
			stats.Max = math.Max(stats.Max, f)
		}
		k := float64(len(seeds))
		stats.Mean = sum / k
		if k > 1 {
			variance := (sumSq - sum*sum/k) / (k - 1)
			if variance > 0 {
				stats.Stddev = math.Sqrt(variance)
			}
		}
		out = append(out, stats)
	}
	return out, nil
}

// DefaultSeeds returns n deterministic seeds.
func DefaultSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = DefaultSeed + int64(i)*101
	}
	return seeds
}

// MultiSeedTable renders the aggregation.
func MultiSeedTable(rows []SeedStats) *Table {
	t := &Table{
		Title:  "Figure 8 robustness — correct fraction across independent event sequences",
		Header: []string{"app", "system", "seeds", "mean", "min", "max", "stddev"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.App, r.Variant.String(), fmt.Sprint(r.Seeds),
			fmt.Sprintf("%.2f", r.Mean), fmt.Sprintf("%.2f", r.Min),
			fmt.Sprintf("%.2f", r.Max), fmt.Sprintf("%.3f", r.Stddev),
		})
	}
	return t
}
