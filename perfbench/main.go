// Command perfbench is the repository's benchmark: one command that
// runs a named workload against the public APIs of the fleet engine
// (internal/fleet) and its daemon (internal/fleetsvc), checks every
// report it gets back, and prints the metrics named in BENCHMARK.json.
// README.md in this directory gives each workload's reason and the
// metric-to-layer predictions.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fleet-short --seed 7 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, measured without spans; with --trace 1 a
// traced sweep over every layer prints the per-layer metrics, the
// tracing overhead, and writes its spans under the -out directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
)

// processStart approximates process start: set-up is timed from here,
// so package-level lazy set-up lands in setup_s.
var processStart = time.Now()

// setupReps is how many processes set up for one setup_s figure: this
// one and setupReps-1 children. setup_s is their median.
const setupReps = 3

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics of BENCHMARK.json, in its order
// (TestBenchmarkJSONMatches keeps the two in step).
var endToEnd = []metricDef{
	{"devices_per_s", "dev/s"},
	{"job_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"fleet.new_job_ms", "ms"},
	{"fleet.chunk_ms_p50", "ms"},
	{"fleet.chunk_ms_max", "ms"},
	{"fleet.fold_ms", "ms"},
	{"fleet.report_ms", "ms"},
	{"env.schedule_us", "us"},
	{"apps.build_us", "us"},
	{"apps.build_allocs", "count"},
	{"apps.execute_us", "us"},
	{"power.memo_lookups_per_dev", "count"},
	{"power.memo_hit_rate", "ratio"},
	{"sim.ops_per_dev", "count"},
	{"sim.op_replay_rate", "ratio"},
	{"sim.op_vector_rate", "ratio"},
	{"sim.op_bypass_frac", "ratio"},
	{"sim.op_mean_width", "count"},
	{"task.steps_per_dev", "count"},
	{"task.fused_rate", "ratio"},
	{"task.spin_iters_per_dev", "count"},
	{"task.cohort_spin_rate", "ratio"},
	{"task.fuse_bypass_frac", "ratio"},
	{"harvest.sample_ns", "ns"},
	{"power.step_segment_ns", "ns"},
	{"storage.connect_ns", "ns"},
	{"reservoir.match_state_ns", "ns"},
	{"sim.charge_to_ns", "ns"},
	{"sim.drain_ns", "ns"},
	{"fleetsvc.submit_ms", "ms"},
	{"fleetsvc.queue_ms", "ms"},
	{"fleetsvc.run_ms", "ms"},
	{"fleetsvc.report_fetch_ms", "ms"},
	{"fleetsvc.store_put_us", "us"},
	{"fleetsvc.store_get_us", "us"},
	{"fleetsvc.entry_kb", "KiB"},
	{"fleetsvc.loaded_frac", "ratio"},
	{"fleetsvc.heap_kb_per_job", "KiB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed; it derives every fleet seed and job spec")
	seconds := flag.Int("seconds", 15, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer sweep instead of the end-to-end measurement")
	out := flag.String("out", ".bench_build/perfbench", "directory for stores, spans and other run files")
	record := flag.Int("record", 0, "record the fleet workloads' report digests for seeds 0..N-1 into -digests and exit")
	digestsPath := flag.String("digests", "perfbench/digests.json", "digest table written by -record")
	setupOnly := flag.Bool("setup-only", false, "set up, print the seconds since process start, and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *record > 0 {
		if err := recordDigests(ctx, *record, *digestsPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *setupOnly {
		secs, err := setupChild(ctx, *workload, *seed, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(secs)
		return
	}
	res, err := run(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run's state.
type bench struct {
	in      inputs
	seconds time.Duration
	dir     string // scratch directory for this run's stores
	out     string // directory for spans
	op      atomic.Int64

	attempted, failed int
	firstFailures     []string
}

func run(ctx context.Context, workload string, seed int64, seconds time.Duration, traced bool, out string) (*output, error) {
	in, err := generate(workload, seed)
	if err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{in: in, seconds: seconds, dir: dir, out: out}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%.0f trace=%v fleet_jobs=%d (first %+v) service_jobs=%d\n",
		workload, seed, seconds.Seconds(), traced, len(in.Fleet), in.Fleet[0], len(in.Service))

	st, setupS, err := b.setup(ctx, !traced)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var vals map[string]float64
	var defs []metricDef
	if traced {
		defs = perLayer
		vals, err = b.traceLayers(ctx, st)
	} else {
		defs = endToEnd
		vals, err = b.measure(ctx, st)
		if err == nil {
			vals["setup_s"] = setupS
		}
	}
	if err != nil {
		return nil, err
	}
	for _, f := range b.firstFailures {
		fmt.Println("# FAILED:", f)
	}
	fmt.Printf("# failed_frac %.4f (%d of %d operations)\n", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	res := &output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("# %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no measurement for %s", strings.Join(missing, ", "))
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation ran")
	}
	return res, nil
}

// attempt counts one operation and whether it failed.
func (b *bench) attempt(err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.firstFailures) < 5 {
		b.firstFailures = append(b.firstFailures, err.Error())
	}
	return false
}

// setupState is what set-up leaves for the measurement.
type setupState struct {
	refs   [][]byte // the service workload's reference reports
	daemon *daemon  // the service workload's first daemon
}

// setup validates the jobs, warms package-level lazy state, builds the
// reference data and boots the daemon, timed from process start. With
// repeat, setupReps-1 child processes then set up the same way, each
// timed from its own start, and the time returned is the median: every
// sample pays the one-time costs (runtime start, gob codec compilation,
// first-touch page faults), and the median steadies the figure.
func (b *bench) setup(ctx context.Context, repeat bool) (*setupState, float64, error) {
	st, err := b.setupOnce(ctx)
	if err != nil {
		return nil, 0, err
	}
	times := []float64{time.Since(processStart).Seconds()}
	for i := 1; repeat && i < setupReps; i++ {
		t, err := b.setupInChild(ctx)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		times = append(times, t)
	}
	fmt.Printf("# setup_s from process start, this process then children: %.4f\n", times)
	return st, median(times), nil
}

func (st *setupState) close() {
	if st.daemon != nil {
		st.daemon.close()
	}
}

// setupInChild runs this binary with -setup-only for the same workload
// and seed, waits for it, and returns the set-up time it prints.
func (b *bench) setupInChild(ctx context.Context) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", b.in.Workload,
		"-seed", strconv.FormatInt(b.in.Seed, 10), "-out", b.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	secs, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("set-up child printed %q: %w", out, err)
	}
	return secs, nil
}

// setupChild is the -setup-only mode: one set-up, timed from process
// start, then the daemon is stopped and its store removed.
func setupChild(ctx context.Context, workload string, seed int64, out string) (float64, error) {
	in, err := generate(workload, seed)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(out, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	b := &bench{in: in, dir: dir, out: out}
	st, err := b.setupOnce(ctx)
	if err != nil {
		return 0, err
	}
	secs := time.Since(processStart).Seconds()
	st.close()
	return secs, nil
}

func (b *bench) setupOnce(ctx context.Context) (*setupState, error) {
	for _, s := range b.in.Fleet {
		if _, err := fleet.NewJob(config(s, workers)); err != nil {
			return nil, err
		}
	}
	// Warm-up: a one-device-per-cohort job through the chunk API, and a
	// store entry round trip (gob compiles its codecs on first use). Its
	// seed is fixed: a fleet's cost varies with its seed, and set-up time
	// should not.
	w, err := decompose(ctx, fleet.Spec{N: 48, Seed: 1, Scale: 0.01, ChunkSize: 16}, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	entry, err := fleetsvc.EncodeEntry(w.hash, 0, w.partials[0])
	if err == nil {
		_, err = fleetsvc.DecodeEntry(entry, w.hash, 0)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	st := &setupState{}
	if b.in.Workload == service {
		if st.refs, err = serviceReferences(ctx, b.in.Service); err != nil {
			return nil, err
		}
		if st.daemon, err = bootDaemon(b.dir); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// measure runs the untraced end-to-end measurement.
func (b *bench) measure(ctx context.Context, st *setupState) (map[string]float64, error) {
	if b.in.Workload == service {
		return b.measureService(ctx, st)
	}
	return b.measureFleet(ctx)
}

func (b *bench) measureFleet(ctx context.Context) (map[string]float64, error) {
	specs := b.in.Fleet
	runs, peaks := timeFleet(ctx, specs, time.Now().Add(b.seconds), 3)
	refs, err := referenceReports(ctx, specs)
	if err != nil {
		return nil, err
	}
	if want, ok := recordedDigest(b.in.Workload, b.in.Seed); ok {
		var err error
		if got := combinedDigest(refs); got != want {
			err = fmt.Errorf("reports digest %.12s, recorded %.12s", got, want)
		}
		if !b.attempt(err) {
			refs = nil // reports that moved off the recorded ones match nothing
		}
	}
	// A report that fails its check is a failed operation, but its
	// timing stands: the job ran.
	for _, r := range runs {
		err := r.err
		if err == nil && refs == nil {
			err = fmt.Errorf("no reference report")
		} else if err == nil {
			err = checkDigest(r.report, digest(refs[r.spec]))
		}
		b.attempt(err)
	}
	walls := wallsMS(runs)
	if len(walls) == 0 {
		return nil, fmt.Errorf("every fleet run failed: %s", strings.Join(b.firstFailures, "; "))
	}
	lo, hi := minMax(walls)
	fmt.Printf("# %d fleet jobs over %d specs: job wall median %.1f ms (min %.1f, max %.1f)\n", len(walls), len(specs), median(walls), lo, hi)
	return map[string]float64{"devices_per_s": throughput(specs, runs), "job_p50_ms": median(walls), "peak_rss_mb": median(peaks)}, nil
}

// measureService runs daemon sessions — each on a fresh daemon and
// store, every spec cold and then warmReps times warm — until
// serviceDone. A fresh daemon per session keeps the job table, which
// holds every job's partials, one session deep, so the run's memory
// does not grow with its speed.
//
// devices_per_s is the cold phase's: the median over sessions of the
// devices simulated and stored per second, the write path. job_p50_ms
// is the warm phase's: the read path's submit-to-report latency. As
// with the fleet jobs, a failed job counts as failed but its latency
// stands: it is how long the caller waited.
func (b *bench) measureService(ctx context.Context, st *setupState) (map[string]float64, error) {
	start := time.Now()
	d := st.daemon
	var cold, warm, coldRates, peaks []float64
	var warmSecs float64
	for {
		resetPeakRSS()
		s := d.session(ctx, b.in.Service, st.refs, warmReps, nil, &b.op)
		d.close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		peaks = append(peaks, peakRSSMiB())
		warmSecs += s.warmTime.Seconds()
		var devices float64
		for _, r := range s.cold {
			b.attempt(r.err)
			cold = append(cold, float64(r.total)/1e6)
			devices += float64(r.devices)
		}
		coldRates = append(coldRates, devices/s.coldTime.Seconds())
		for _, r := range s.warm {
			b.attempt(r.err)
			warm = append(warm, float64(r.total)/1e6)
		}
		if serviceDone(time.Since(start), b.seconds, len(cold), len(warm), b.failed) {
			break
		}
		var err error
		if d, err = bootDaemon(b.dir); err != nil {
			return nil, err
		}
	}
	if len(cold) == 0 || len(warm) == 0 {
		return nil, fmt.Errorf("a session ran no job")
	}
	printLatency("cold", cold, 0.90)
	printLatency("warm", warm, 0.99)
	lo, hi := minMax(coldRates)
	fmt.Printf("# %d sessions: cold devices_per_s median %.1f (min %.1f, max %.1f), warm jobs_per_s %.1f\n",
		len(coldRates), median(coldRates), lo, hi, float64(len(warm))/warmSecs)
	return map[string]float64{"devices_per_s": median(coldRates), "job_p50_ms": median(warm), "peak_rss_mb": median(peaks)}, nil
}

// Sample counts the service loop wants before it stops: ten beyond the
// cold p90 and the warm p99.
const (
	minCold = 100
	minWarm = 1000
)

// serviceDone reports whether the service loop stops after a session,
// elapsed into a run of budget. It runs at least the budget; past it,
// it stops once both phases have enough samples for their tails, or at
// the first failed operation (a failing commit must still print its
// result line, with the failures counted), and at twice the budget
// whatever it has, so a slow commit cannot keep it going.
func serviceDone(elapsed, budget time.Duration, cold, warm, failed int) bool {
	switch {
	case elapsed < budget:
		return false
	case failed > 0, elapsed >= 2*budget:
		return true
	}
	return cold >= minCold && warm >= minWarm
}

// printLatency prints a phase's median and tail latency with the
// sample counts behind them.
func printLatency(phase string, lat []float64, tailP float64) {
	tail, ok := percentile(lat, tailP)
	fmt.Printf("# %s jobs: %d, p50 %.3f ms, p%.0f %.3f ms (%d samples beyond it, ten needed: %v)\n",
		phase, len(lat), median(lat), 100*tailP, tail, len(lat)-rank(len(lat), tailP), ok)
}

// warmReps is how many times a session's warm phase submits each spec.
const warmReps = 8

// printSelfTimes prints where the traced sweep's time went, by span.
func printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("# self time %-22s %10.1f ms\n", n, float64(self[n])/1e6)
	}
}

// recordDigests writes the fleet workloads' combined report digests for
// seeds 0..n-1, computed on the reference path.
func recordDigests(ctx context.Context, n int, path string) error {
	table := map[string]map[string]string{}
	for _, w := range []string{fleetShort, fleetLong} {
		table[w] = map[string]string{}
		for s := 0; s < n; s++ {
			in, err := generate(w, int64(s))
			if err != nil {
				return err
			}
			reports, err := referenceReports(ctx, in.Fleet)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, s, err)
			}
			table[w][fmt.Sprint(s)] = combinedDigest(reports)
		}
	}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Clean(path), append(data, '\n'), 0o644)
}
