// Package fleet runs large populations of independent Capybara device
// lifecycles — heterogeneous application/variant/environment cohorts,
// one seeded schedule per device — and reports fleet-level statistics
// without retaining per-device state.
//
// Three performance layers keep per-device cost at simulation, not
// construction or retention:
//
//   - shared immutable artifacts and recycled scratch: cohort
//     environment traces are built once and shared by every device in
//     the cohort (harvest.Modulated wraps the built source without
//     copying it), the storage technology catalog is already interned
//     package-level state, and each worker's recorder and buffers are
//     recycled through a sync.Pool and reset between devices;
//   - streaming aggregation: per-device observables fold into
//     constant-size per-cohort accumulators (metrics.Running, mergeable
//     metrics.Histogram, integer totals) per chunk, and chunks fold in
//     index order — memory is O(workers + cohorts), not O(devices).
//     The worker's recorder drops sample timestamps
//     (metrics.Recorder.DropSamples, set by Job.NewScratch): the fleet
//     never runs the gap analysis, and a gesture device takes over a
//     million samples;
//   - a lean device step: a fleet-long device is mostly task attempts,
//     so the attempt path (task.Engine.Run, sim.Device.Drain) takes
//     one deferred recover per power failure rather than per attempt,
//     computes each drain on plain values, and allocates nothing in
//     steady state (DESIGN.md §7, "The device-step hot path").
//
// Execution decomposes into fixed-size device-index chunks behind the
// Job/RunChunk/Fold API. Run drives the chunks through an in-process
// worker pool; internal/shard drives the identical chunks across
// worker processes over TCP. Either way the partials fold in chunk
// order, so the report is a pure function of the Spec.
//
// Determinism: device d derives everything random from runner.RNG(seed,
// d) and chunk boundaries are a fixed size independent of the worker
// count, so the folded report is byte-identical at any Jobs — or at any
// shard topology or failure schedule. Wall-clock throughput depends on
// scheduling, so it is reported as a diagnostic, never in the Report.
package fleet

import (
	"context"
	"fmt"
	"runtime"
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
// partials serialize for the shard wire protocol.
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
				rng := runner.RNG(seed^0x5ca1ab1e, idx)
				switch s {
				case PWM:
					duty := 0.3 + 0.4*rng.Float64()
					period := units.Seconds(4 + 8*rng.Float64())
					c.trace = harvest.PWMTrace(duty, period)
				case Blackout:
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
				grid = append(grid, c)
				idx++
			}
		}
	}
	return grid, nil
}

// Run executes the fleet in-process and folds the report: chunks fan
// out across a runner pool and fold in index order. internal/shard runs
// the identical chunk decomposition across worker processes.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	job, err := NewJob(cfg)
	if err != nil {
		return nil, err
	}
	workers := cfg.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Per-worker scratch — recorder and latency buffer — recycled
	// across chunks through a sync.Pool. Scratch returned dirty is fine:
	// execute Resets the state containers before each device.
	scratches := sync.Pool{New: func() any { return job.NewScratch() }}

	start := time.Now()
	folds, err := runner.Map(ctx, cfg.Jobs, job.NumChunks(), func(ctx context.Context, ci int) (*ChunkPartial, error) {
		ws := scratches.Get().(*Scratch)
		defer scratches.Put(ws)
		return job.RunChunk(ctx, ci, ws)
	})
	if err != nil {
		return nil, err
	}

	res, err := job.Fold(folds)
	if err != nil {
		return nil, err
	}
	res.Workers = workers
	res.Elapsed = time.Since(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.DevicesSec = float64(cfg.N) / secs
	}
	return res, nil
}

// simulate runs device d's lifecycle and folds its observables into the
// chunk partial. Nothing of the device survives the call — its state
// containers live in ws and are recycled for the next device.
func (j *Job) simulate(d int, ws *Scratch, cp *ChunkPartial) error {
	run, ci, err := j.execute(d, &ws.scr)
	if err != nil {
		return err
	}
	agg := &cp.Cohorts[ci]
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
	ws.lat = run.Rec.AppendLatencies(ws.lat[:0])
	for _, lat := range ws.lat {
		agg.Latency.Add(float64(lat))
		agg.LatencyHist.Add(lat)
	}
	st := run.Inst.Dev.Stats
	agg.Boots += st.Boots
	agg.Brownouts += st.Brownouts
	agg.TimeOn += st.TimeOn
	agg.TimeOff += st.TimeOff
	agg.Reconfigs += run.Inst.Runtime.Reconfigs
	agg.Precharges += run.Inst.Runtime.Precharges
	return nil
}

// execute builds device d of cohort ci = d mod len(grid) on scr, reset
// first, and runs its lifecycle to the horizon. A nil scr builds every
// container fresh, as the experiments do.
func (j *Job) execute(d int, scr *apps.Scratch) (*apps.Run, int, error) {
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
	rng := runner.RNG(j.cfg.Seed, d)
	sched := env.Poisson(rng, n, spec.Mean, spec.Window)
	if scr != nil {
		scr.Reset()
	}
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
	return run, ci, run.Execute()
}
