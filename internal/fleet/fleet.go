// Package fleet runs large populations of independent Capybara device
// lifecycles — heterogeneous application/variant/environment cohorts,
// one seeded schedule per device — and reports fleet-level statistics
// without retaining per-device state.
//
// Four performance layers keep per-device cost at simulation, not
// construction or retention, and skip simulation another device has
// done:
//
//   - shared immutable artifacts and recycled scratch: cohort
//     environment traces are built once and shared by every device in
//     the cohort (harvest.Modulated wraps the built source without
//     copying it), the storage technology catalog is already interned
//     package-level state, and each Compute goroutine owns one recorder
//     and buffer set for its lifetime, reset between devices;
//   - streaming aggregation: per-device observables fold into
//     constant-size per-cohort accumulators (metrics.Running, mergeable
//     metrics.Histogram, integer totals) per chunk, and chunks fold in
//     index order — memory is O(workers + cohorts), not O(devices).
//     The worker's recorder drops sample timestamps
//     (metrics.Recorder.DropSamples, set on every Scratch): the fleet
//     never runs the gap analysis, and a gesture device takes over a
//     million samples;
//   - a lean device step: a fleet-long device is mostly task attempts,
//     so the attempt path (task.Engine.Run, sim.Device.Drain) takes
//     one deferred recover per power failure rather than per attempt,
//     computes each drain on plain values, and allocates nothing in
//     steady state (DESIGN.md §7, "The device-step hot path");
//   - the event-free prefix: until its first event a device runs its
//     cohort's one polling trajectory, which no seed, scale or N enters
//     for a Steady or Continuous cohort. A Prefixes store keeps
//     snapshots of each trajectory, and a later device resumes from the
//     latest one taken before its own first event. Job.Run shares one
//     store among its workers; the fleetsvc daemon and each remote
//     worker keep one for their lifetimes, so a job resumes from
//     prefixes earlier jobs simulated (prefix.go, DESIGN.md §7,
//     "Resuming from the event-free prefix").
//
// Execution decomposes into fixed-size device-index chunks behind the
// Job/Compute/Fold API. Job.Run is the one in-process driver: Run and
// capyfleet's one-shot mode call it. The fleetsvc daemon runs its jobs'
// chunks through Job.Compute, in its own process and in remote workers
// that lease chunks over its HTTP API, and folds them with Job.Fold.
// Either way the partials fold in chunk order, so the report is a pure
// function of the Spec.
//
// Determinism: device d derives everything random from the stream
// runner.RNG(seed, d) starts (each worker reseeds one generator per
// device, bit-identically), and chunk boundaries are a fixed size
// independent of the worker count, so the folded report is
// byte-identical at any Jobs — or at any mix of daemon and remote
// workers and any failure schedule. Wall-clock throughput depends on scheduling, so it is
// reported as a diagnostic, never in the Report.
package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/harvest"
	"capybara/internal/metrics"
	"capybara/internal/runner"
	"capybara/internal/units"
)

// Scenario selects a cohort's harvesting environment, applied on top of
// the application's paper-default source.
type Scenario int

const (
	// Steady leaves the application's source as built.
	Steady Scenario = iota
	// PWM gates the source by a duty-cycled square wave (dimmed-bulb
	// harvesting, the paper's §6.2 TA setup taken literally).
	PWM
	// Blackout injects harvester outage windows (§5.2's adversarial
	// input timing).
	Blackout

	numScenarios
)

func (s Scenario) String() string {
	switch s {
	case Steady:
		return "steady"
	case PWM:
		return "pwm"
	default:
		return "blackout"
	}
}

// Cohort is one cell of the fleet's population grid: an application,
// a power-system variant, and a harvesting scenario. Device d belongs
// to cohort d mod len(cohorts).
type Cohort struct {
	App      string
	Variant  core.Variant
	Scenario Scenario
	// trace is the cohort's shared environment modulation (nil for
	// Steady): one immutable value reused by every device in the cohort.
	trace harvest.Trace
	// prefix is the event-free trajectory its devices share with every
	// cohort of the same key, in any job (prefix.go).
	prefix trajectory
}

func (c Cohort) String() string {
	return fmt.Sprintf("%s/%s/%s", c.App, c.Variant, c.Scenario)
}

// Config parameterizes a fleet run.
type Config struct {
	// N is the number of devices.
	N int
	// Seed derives every device's schedule and environment.
	Seed int64
	// Jobs is the worker count (<= 0 means GOMAXPROCS, 1 is serial).
	// The report is byte-identical at any value.
	Jobs int
	// Scale scales each application's event count in (0, 1]; 0 means
	// 1.0. Smaller scales shorten every lifecycle proportionally.
	Scale float64
	// ChunkSize is the number of consecutive devices folded per
	// aggregation chunk (0 = 64). It must not vary with Jobs — chunk
	// boundaries define the fold order the determinism guarantee
	// depends on.
	ChunkSize int
}

const defaultChunk = 64

// latencyEdges bins event-to-report latencies for the fleet histogram.
var latencyEdges = []units.Seconds{1, 5, 10, 30, 60, 120}

// CohortAccum is one cohort's device aggregates. All fields fold
// associatively in fixed device order, so the totals are independent of
// the worker count — and every field is exported and value-typed so
// partials serialize to the store entries the daemon keeps and remote
// workers send.
type CohortAccum struct {
	Devices int
	// Events and outcome totals are integer-exact.
	Events        int
	Correct       int
	Misclassified int
	Missed        int
	// Accuracy accumulates per-device fraction-correct.
	Accuracy metrics.Running
	// Latency accumulates every reported event's latency (seconds);
	// LatencyHist bins the same stream.
	Latency     metrics.Running
	LatencyHist metrics.Histogram
	// Lifecycle counters summed over devices.
	Boots      int
	Brownouts  int
	Reconfigs  int
	Precharges int
	TimeOn     units.Seconds
	TimeOff    units.Seconds
}

// Merge folds o into c. Exported because the fleet service merges
// checkpointed partials into progress snapshots; Fold remains the only
// canonical-report path (fixed chunk-index order).
func (c *CohortAccum) Merge(o *CohortAccum) error {
	c.Devices += o.Devices
	c.Events += o.Events
	c.Correct += o.Correct
	c.Misclassified += o.Misclassified
	c.Missed += o.Missed
	c.Accuracy.Merge(o.Accuracy)
	c.Latency.Merge(o.Latency)
	if err := c.LatencyHist.Merge(&o.LatencyHist); err != nil {
		return err
	}
	c.Boots += o.Boots
	c.Brownouts += o.Brownouts
	c.Reconfigs += o.Reconfigs
	c.Precharges += o.Precharges
	c.TimeOn += o.TimeOn
	c.TimeOff += o.TimeOff
	return nil
}

// CohortStats pairs a cohort's identity with its folded aggregates.
type CohortStats struct {
	Cohort Cohort
	CohortAccum
}

func (c *CohortStats) merge(o *CohortStats) error {
	return c.CohortAccum.Merge(&o.CohortAccum)
}

// Result is a completed fleet run.
type Result struct {
	Config  Config
	Cohorts []CohortStats // in cohort-grid order; the canonical output
	// Diagnostics — excluded from the canonical report because they
	// depend on wall clock and on how chunks land on workers.
	Elapsed    time.Duration
	DevicesSec float64
	Workers    int
	// Cache, Batch and Fuse are always zero (see enginestats.go).
	Cache CacheStats
	Batch BatchStats
	Fuse  FuseStats
}

// cohortGrid builds the population grid: every application × variant ×
// scenario, with the scenario traces derived from the seed so the whole
// grid is a function of Config alone.
func cohortGrid(seed int64) ([]Cohort, error) {
	var grid []Cohort
	var rng *rand.Rand // reseeded for each cohort that draws
	idx := 0
	for _, name := range apps.SpecNames() {
		if _, err := apps.SpecByName(name); err != nil {
			return nil, err
		}
		for _, v := range []core.Variant{core.Continuous, core.Fixed, core.CapyR, core.CapyP} {
			for s := Scenario(0); s < numScenarios; s++ {
				c := Cohort{App: name, Variant: v, Scenario: s}
				// Scenario parameters are drawn per cohort, not per
				// device: the trace is a shared immutable artifact.
				// Only the cases that draw seed the generator; idx still
				// counts every cohort, so each stream is fixed by the
				// cohort's grid position.
				switch s {
				case PWM:
					rng = runner.Reseed(rng, seed^0x5ca1ab1e, idx)
					duty := 0.3 + 0.4*rng.Float64()
					period := units.Seconds(4 + 8*rng.Float64())
					c.trace = harvest.PWMTrace(duty, period)
				case Blackout:
					rng = runner.Reseed(rng, seed^0x5ca1ab1e, idx)
					var windows [][2]units.Seconds
					t := units.Seconds(0)
					for len(windows) < 8 {
						t += units.Seconds(30 + 120*rng.Float64())
						dur := units.Seconds(5 + 25*rng.Float64())
						windows = append(windows, [2]units.Seconds{t, dur})
						t += dur
					}
					c.trace = harvest.BlackoutTrace(harvest.ConstantTrace(1), windows...)
				}
				c.prefix = prefixKey(c, seed)
				grid = append(grid, c)
				idx++
			}
		}
	}
	return grid, nil
}

// CohortLabels returns each cohort's label (Cohort.String) in grid
// order, the order ChunkPartial.Cohorts is indexed by. The labels are
// the same for every spec, since the seed changes only the scenario
// traces, so naming a stored partial's cohorts needs no Job. The
// returned slice is shared; callers must not mutate it.
func CohortLabels() []string { return cohortLabels() }

var cohortLabels = sync.OnceValue(func() []string {
	grid, _ := cohortGrid(0) // fails only if every NewJob does
	labels := make([]string, len(grid))
	for i, c := range grid {
		labels[i] = c.String()
	}
	return labels
})

// Run executes the fleet in-process and folds the report: NewJob, then
// Job.Run with nothing loaded and nothing checkpointed. The fleetsvc
// daemon runs the identical chunk decomposition across its own and
// remote workers.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	job, err := NewJob(cfg)
	if err != nil {
		return nil, err
	}
	return job.Run(ctx, nil, nil)
}

// simulate runs device d's lifecycle and folds its observables into the
// chunk partial. Nothing of the device survives the call — its state
// containers live in ws and are recycled for the next device.
func (j *Job) simulate(d int, ws *Scratch, cp *ChunkPartial) error {
	run, ci, err := j.execute(d, ws)
	if err != nil {
		return err
	}
	ws.lat = foldDevice(&cp.Cohorts[ci], run, ws.lat[:0])
	return nil
}

// foldDevice folds a finished run's observables into its cohort's
// accumulator, staging its latencies in lat, which it returns for reuse.
func foldDevice(agg *CohortAccum, run *apps.Run, lat []units.Seconds) []units.Seconds {
	if len(agg.LatencyHist.Edges) == 0 {
		agg.LatencyHist.Edges = latencyEdges
	}
	agg.Devices++
	acc := run.Accuracy()
	agg.Events += acc.Total
	agg.Correct += acc.Correct
	agg.Misclassified += acc.Misclassified
	agg.Missed += acc.Missed
	agg.Accuracy.Add(acc.FractionCorrect())
	lat = run.Rec.AppendLatencies(lat)
	for _, l := range lat {
		agg.Latency.Add(float64(l))
		agg.LatencyHist.Add(l)
	}
	st := run.Inst.Dev.Stats
	agg.Boots += st.Boots
	agg.Brownouts += st.Brownouts
	agg.TimeOn += st.TimeOn
	agg.TimeOff += st.TimeOff
	agg.Reconfigs += run.Inst.Runtime.Reconfigs
	agg.Precharges += run.Inst.Runtime.Precharges
	return lat
}

// execute builds device d of cohort ci = d mod len(grid) on ws, reset
// first, and runs its lifecycle to the horizon. The device's stream is
// ws's generator reseeded to runner.RNG(seed, d), and it resumes from
// its cohort's event-free trajectory in ws's store (runShared). A nil ws
// builds every container and the generator fresh and simulates from
// t = 0, as the experiments do: it is the unshared reference.
func (j *Job) execute(d int, ws *Scratch) (*apps.Run, int, error) {
	ci := d % len(j.grid)
	cohort := j.grid[ci]
	spec, err := apps.SpecByName(cohort.App)
	if err != nil {
		return nil, ci, err
	}
	n := int(float64(spec.Events) * j.scale)
	if n < 1 {
		n = 1
	}
	var scr *apps.Scratch
	var rng *rand.Rand
	if ws != nil {
		ws.scr.Reset()
		ws.rng = runner.Reseed(ws.rng, j.cfg.Seed, d)
		scr, rng = &ws.scr, ws.rng
	} else {
		rng = runner.RNG(j.cfg.Seed, d)
	}
	sched := env.Poisson(rng, n, spec.Mean, spec.Window)
	run, err := spec.Build(cohort.Variant, sched, nil, scr)
	if err != nil {
		return nil, ci, err
	}
	// The cohort scenario modulates the built source. The swap is sound
	// mid-construction — the device has not started running.
	if cohort.trace != nil {
		run.Inst.Dev.Sys.Source = harvest.Modulated{
			Source: run.Inst.Dev.Sys.Source,
			Trace:  cohort.trace,
		}
	}
	if ws == nil {
		return run, ci, run.Execute()
	}
	return run, ci, ws.runShared(run, cohort.prefix, markSpacing(spec.Mean))
}
