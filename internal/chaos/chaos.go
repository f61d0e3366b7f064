// Package chaos is a seeded fault-injection and invariant-checking
// harness for the simulator. Each trial builds a randomized device,
// injects harvester outages at adversarial instants — segment
// boundaries, the cold-start crossing, latch-retention expiry (one
// tick before, at, and after), mid-reconfiguration, and mid-task — and
// checks a registry of physics and semantics invariants after every
// simulator event (see Registry). Trials are a pure function of
// (seed, trial index): any violation is replayable from its seed.
package chaos

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"capybara/internal/runner"
	"capybara/internal/units"
)

// Config parameterizes a chaos run.
type Config struct {
	// Trials is the number of independent trials to run.
	Trials int
	// Seed makes the whole run reproducible; trial i derives its own
	// stream from (Seed, i).
	Seed int64
	// Jobs bounds worker parallelism (<= 0 means GOMAXPROCS-ish,
	// see runner.DefaultJobs; 1 forces serial).
	Jobs int
	// Horizon is each trial's simulated duration (default 600 s).
	Horizon units.Seconds
	// MaxViolationsPerTrial bounds recorded violations per trial
	// (default 8): a single genuine bug fails every subsequent check.
	MaxViolationsPerTrial int
}

func (c Config) horizon() units.Seconds {
	if c.Horizon > 0 {
		return c.Horizon
	}
	return 600
}

// Report aggregates a chaos run.
type Report struct {
	Trials int
	// Events is the total number of simulator events observed; Faults
	// the total number of injected outage windows.
	Events int
	Faults int
	// Scenarios counts trials per scenario; Checks counts executed
	// assertions per invariant.
	Scenarios map[string]int
	Checks    map[string]int
	// Violations holds every recorded invariant breach.
	Violations []Violation
}

// Summary renders the report for the CLI.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d trials, %d faults injected, %d events observed\n",
		r.Trials, r.Faults, r.Events)
	names := make([]string, 0, len(r.Scenarios))
	// order-independent: collects the keys, sorted below.
	for name := range r.Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  scenario %-22s %d trials\n", name, r.Scenarios[name])
	}
	names = names[:0]
	// order-independent: collects the keys, sorted below.
	for name := range r.Checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  invariant %-21s %d checks\n", name, r.Checks[name])
	}
	if len(r.Violations) == 0 {
		b.WriteString("  0 violations\n")
	} else {
		fmt.Fprintf(&b, "  %d VIOLATIONS:\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "    %v\n", v)
		}
	}
	return b.String()
}

// trialResult is what one trial reports back to the aggregator.
type trialResult struct {
	scenario   string
	events     int
	faults     int
	checks     map[string]int
	violations []Violation
}

// Run executes cfg.Trials independent chaos trials across cfg.Jobs
// workers and aggregates their results. The report is deterministic in
// (Seed, Trials, Horizon): trial scheduling order does not matter
// because every trial owns its rng stream and results are merged in
// trial order.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	horizon := cfg.horizon()
	results, err := runner.Map(ctx, cfg.Jobs, cfg.Trials, func(ctx context.Context, job int) (trialResult, error) {
		return runTrial(job, cfg, horizon), nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Trials:    cfg.Trials,
		Scenarios: make(map[string]int),
		Checks:    make(map[string]int),
	}
	for _, res := range results {
		rep.Events += res.events
		rep.Faults += res.faults
		rep.Scenarios[res.scenario]++
		// order-independent: sums integer counts into another map.
		for name, n := range res.checks {
			rep.Checks[name] += n
		}
		rep.Violations = append(rep.Violations, res.violations...)
	}
	return rep, nil
}

// runTrial executes one trial and snapshots its checker.
func runTrial(job int, cfg Config, horizon units.Seconds) trialResult {
	rng := runner.RNG(cfg.Seed, job)
	var tr *trial
	if scenarioNames[job%len(scenarioNames)] == "task-workload" {
		tr = runTaskWorkload(job, cfg.Seed, rng, horizon, cfg.MaxViolationsPerTrial)
	} else {
		tr = newTrial(job, cfg.Seed, rng)
		tr.chk.MaxViolations = cfg.MaxViolationsPerTrial
		tr.run(horizon)
	}
	return trialResult{
		scenario:   tr.scenario,
		events:     tr.chk.Events,
		faults:     tr.fs.Cuts(),
		checks:     tr.chk.Checks,
		violations: tr.chk.Violations,
	}
}
