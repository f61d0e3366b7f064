package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/device"
	"capybara/internal/env"
	"capybara/internal/harvest"
	"capybara/internal/metrics"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/runner"
	"capybara/internal/sim"
	"capybara/internal/storage"
	"capybara/internal/task"
	"capybara/internal/units"
)

// writeRunDigest writes everything TestFleetRecycleInvariant compares:
// writeDeviceStats, the accuracy tally, and every latency's bits.
func writeRunDigest(w io.Writer, d int, run *apps.Run) {
	writeDeviceStats(w, d, run)
	acc := run.Accuracy()
	lat := run.Rec.Latencies()
	vals := []uint64{uint64(acc.Total), uint64(acc.Correct), uint64(acc.Misclassified),
		uint64(acc.ProximityOnly), uint64(acc.Missed), uint64(len(lat))}
	for _, l := range lat {
		vals = append(vals, math.Float64bits(float64(l)))
	}
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], v)
		w.Write(buf[:])
	}
}

// restorePoint returns the clock of the snapshot a device whose first
// event is at first restores from snaps, or false if it runs from 0.
func restorePoint(snaps []core.State, first units.Seconds) (units.Seconds, bool) {
	k := sort.Search(len(snaps), func(i int) bool { return snaps[i].Dev.Now >= first })
	if k == 0 {
		return 0, false
	}
	return snaps[k-1].Dev.Now, true
}

// referencePartials computes every chunk of j with each device built
// fresh and run from t = 0 (execute(d, nil)): the unshared reference.
func referencePartials(t testing.TB, j *Job) []*ChunkPartial {
	t.Helper()
	partials := make([]*ChunkPartial, j.NumChunks())
	for ci := range partials {
		cp := &ChunkPartial{Chunk: ci, Cohorts: make([]CohortAccum, len(j.grid))}
		lo, hi := j.chunkBounds(ci)
		for d := lo; d < hi; d++ {
			run, c, err := j.execute(d, nil)
			if err != nil {
				t.Fatalf("device %d: %v", d, err)
			}
			foldDevice(&cp.Cohorts[c], run, nil)
		}
		partials[ci] = cp
	}
	return partials
}

func encodePartials(t testing.TB, partials []*ChunkPartial) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, cp := range partials {
		if err := EncodePartial(&buf, cp); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSharedPrefixMatchesFresh runs every device of three fleets with
// many devices per cohort (20, with PWM and blackout traces) once
// through one recycled worker scratch, whose prefix store the three
// jobs share in turn, and once through a nil scratch, from t = 0. Both
// must agree on every statistic, accuracy and latency, bit for bit.
//
// At least two in five of each job's devices must restore a snapshot.
// (About 45 % do: the Fixed and Capy-P cohorts charge for 50 to 480 s
// before their first task attempt, the first point a snapshot can be
// taken, so most of their devices see their event before any
// snapshot.) In each later job, at least one device in four must
// restore a snapshot an earlier job saved on a Steady or Continuous
// trajectory (about 31 % do).
func TestSharedPrefixMatchesFresh(t *testing.T) {
	seeds := []int64{3, 11, 12345}
	if raceEnabled {
		seeds = seeds[:1] // one goroutine: size adds no interleaving
	}
	ws := newScratch(NewPrefixes())
	for i, seed := range seeds {
		j, err := NewJob(Config{N: 960, Seed: seed, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		ends := listEnds(j, ws)
		var restored, earlier int
		var skipped, prefix float64
		for d := 0; d < j.cfg.N; d++ {
			k := j.grid[d%len(j.grid)].prefix
			before := ws.pre.snapshots(k) // the list only grows by appending
			shared, _, err := j.execute(d, ws)
			if err != nil {
				t.Fatalf("seed %d device %d shared: %v", seed, d, err)
			}
			first := shared.Schedule.Events[0].At
			if at, ok := restorePoint(before, first); ok {
				restored++
				skipped += float64(at)
				if end, ok := ends[k]; ok && at <= end {
					earlier++
				}
			}
			prefix += float64(min(first, shared.Horizon))
			var got, want bytes.Buffer
			writeRunDigest(&got, d, shared)
			fresh, _, err := j.execute(d, nil)
			if err != nil {
				t.Fatalf("seed %d device %d fresh: %v", seed, d, err)
			}
			writeRunDigest(&want, d, fresh)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("seed %d device %d: the shared run's statistics differ from a run from t = 0", seed, d)
			}
		}
		t.Logf("seed %d: %d of %d devices restored, %d of them an earlier job's snapshot; they skipped %.1f%% of the pre-event simulated time",
			seed, restored, j.cfg.N, earlier, 100*skipped/prefix)
		if 5*restored < 2*j.cfg.N {
			t.Fatalf("seed %d: %d of %d devices restored a snapshot, want at least two in five", seed, restored, j.cfg.N)
		}
		if i > 0 && 4*earlier < j.cfg.N {
			t.Fatalf("seed %d, after %d earlier jobs: %d of %d devices restored an earlier job's snapshot, want at least one in four",
				seed, i, earlier, j.cfg.N)
		}
	}
}

// listEnds returns the clock of the last snapshot ws's store holds for
// each trajectory of j's grid that has any.
func listEnds(j *Job, ws *Scratch) map[trajectory]units.Seconds {
	ends := make(map[trajectory]units.Seconds)
	for _, c := range j.grid {
		if l := ws.pre.snapshots(c.prefix); len(l) > 0 {
			ends[c.prefix] = l[len(l)-1].Dev.Now
		}
	}
	return ends
}

// TestSharedPrefixJobRun: Job.Run at two workers, which share one
// prefix store, renders the report of devices that all ran from t = 0.
func TestSharedPrefixJobRun(t *testing.T) {
	cfg := Config{N: 480, Seed: 11, Scale: 0.01, Jobs: 2}
	j, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := j.Fold(referencePartials(t, j))
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := res.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Job.Run report differs from the unshared one:\n%s\n---\n%s", got.String(), want.String())
	}
}

// countSnapshots returns how many snapshots p holds in seed-free and in
// seeded lists.
func countSnapshots(p *Prefixes) (free, seeded int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// order-independent: sums.
	for k, l := range p.lists {
		if k.seeded {
			seeded += len(l)
		} else {
			free += len(l)
		}
	}
	return free, seeded
}

// runInspected computes every chunk of j on ws, device by device as
// RunChunk does, and returns the partials. It counts the devices that
// restored a snapshot, and those that restored one no later than the
// end of its list in ends (listEnds): one saved before ends was taken.
// It fails on a device that looks up another seed's seeded list.
func runInspected(t testing.TB, j *Job, ws *Scratch, ends map[trajectory]units.Seconds) (partials []*ChunkPartial, restored, earlier int) {
	t.Helper()
	partials = make([]*ChunkPartial, j.NumChunks())
	for ci := range partials {
		cp := &ChunkPartial{Chunk: ci, Cohorts: make([]CohortAccum, len(j.grid))}
		lo, hi := j.chunkBounds(ci)
		for d := lo; d < hi; d++ {
			k := j.grid[d%len(j.grid)].prefix
			if k.seeded && k.seed != j.cfg.Seed {
				t.Fatalf("device %d of seed %d looks up a list of seed %d", d, j.cfg.Seed, k.seed)
			}
			before := ws.pre.snapshots(k)
			run, c, err := j.execute(d, ws)
			if err != nil {
				t.Fatalf("seed %d device %d: %v", j.cfg.Seed, d, err)
			}
			if at, ok := restorePoint(before, run.Schedule.Events[0].At); ok {
				restored++
				if end, ok := ends[k]; ok && at <= end {
					earlier++
				}
			}
			ws.lat = foldDevice(&cp.Cohorts[c], run, ws.lat[:0])
		}
		partials[ci] = cp
	}
	return partials, restored, earlier
}

// TestForeignScratchYieldsOwnPartials: a scratch job A filled with its
// snapshots, handed to job B (another seed, so other PWM and blackout
// traces), yields B's unshared partials exactly. B's devices resume
// from the Steady and Continuous trajectories A extended, and leave A's
// seeded lists as they were.
func TestForeignScratchYieldsOwnPartials(t *testing.T) {
	a, err := NewJob(Config{N: 192, Seed: 21, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewJob(Config{N: 192, Seed: 22, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ws := a.NewScratch()
	for ci := 0; ci < a.NumChunks(); ci++ {
		if _, err := a.RunChunk(context.Background(), ci, ws); err != nil {
			t.Fatal(err)
		}
	}
	free, seeded := countSnapshots(ws.pre)
	if free == 0 || seeded == 0 {
		t.Fatalf("job A's devices saved %d seed-free and %d seeded snapshots, want some of each", free, seeded)
	}
	aSeeded := make(map[trajectory]int)
	for _, c := range a.grid {
		if c.prefix.seeded {
			aSeeded[c.prefix] = len(ws.pre.snapshots(c.prefix))
		}
	}
	got, _, earlier := runInspected(t, b, ws, listEnds(b, ws))
	if !bytes.Equal(encodePartials(t, got), encodePartials(t, referencePartials(t, b))) {
		t.Fatal("job B's partials on job A's scratch differ from B's unshared ones")
	}
	if earlier == 0 {
		t.Fatal("no device of job B restored a snapshot job A saved")
	}
	// order-independent: each list is compared on its own.
	for k, n := range aSeeded {
		if now := len(ws.pre.snapshots(k)); now != n {
			t.Fatalf("job B's devices changed job A's list %+v: %d snapshots, had %d", k, now, n)
		}
	}
	t.Logf("%d of %d devices of job B restored a snapshot job A saved", earlier, b.cfg.N)
}

// readCounter is a harvest source that counts every read of it.
type readCounter struct{ reads *int }

func (s readCounter) PowerAt(units.Seconds) units.Power      { *s.reads++; return 0 }
func (s readCounter) VoltageAt(units.Seconds) units.Voltage  { *s.reads++; return 0 }
func (s readCounter) NextChange(units.Seconds) units.Seconds { *s.reads++; return 0 }

// TestContinuousNeverReadsSource pins what keys every Continuous cohort
// on its application alone: built as execute builds it, under each of
// the three scenarios, a Continuous device runs its whole lifecycle
// without reading its source once.
func TestContinuousNeverReadsSource(t *testing.T) {
	j, err := NewJob(Config{N: 96, Seed: 4, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cohorts := 0
	for ci, c := range j.grid {
		if c.Variant != core.Continuous {
			continue
		}
		cohorts++
		spec, err := apps.SpecByName(c.App)
		if err != nil {
			t.Fatal(err)
		}
		for d := ci; d < j.cfg.N; d += len(j.grid) {
			n := max(int(float64(spec.Events)*j.scale), 1)
			run, err := spec.Build(c.Variant, env.Poisson(runner.RNG(j.cfg.Seed, d), n, spec.Mean, spec.Window), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var reads int
			var src harvest.Source = readCounter{&reads}
			if c.trace != nil {
				src = harvest.Modulated{Source: src, Trace: c.trace}
			}
			run.Inst.Dev.Sys.Source = src
			if err := run.Execute(); err != nil {
				t.Fatalf("%s device %d: %v", c, d, err)
			}
			if reads > 0 {
				t.Errorf("%s device %d read its source %d times", c, d, reads)
			}
			if run.Accuracy().Total == 0 {
				t.Fatalf("%s device %d ran no event", c, d)
			}
		}
	}
	if cohorts != 3*len(apps.SpecNames()) {
		t.Fatalf("ran %d Continuous cohorts, want one per application and scenario", cohorts)
	}
}

// computeAll runs every chunk of j through Compute on workers
// goroutines over pre, and returns the partials in chunk order.
func computeAll(j *Job, workers int, pre *Prefixes) ([]*ChunkPartial, error) {
	partials := make([]*ChunkPartial, j.NumChunks())
	_, err := j.Compute(context.Background(), workers, pre, counter(j.NumChunks()), func(cp *ChunkPartial) error {
		partials[cp.Chunk] = cp
		return nil
	})
	return partials, err
}

// seededKeys returns the keys of p's seeded lists.
func seededKeys(p *Prefixes) []trajectory {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []trajectory
	// order-independent: the caller only counts and prints them.
	for k := range p.lists {
		if k.seeded {
			out = append(out, k)
		}
	}
	return out
}

// TestPrefixesAcrossJobs: one store serves jobs over 3 seeds, 2 scales
// and 2 values of N. Run in turn on one scratch, every partial equals
// the unshared reference, a later seed restores snapshots an earlier
// one saved, and no device looks up another seed's PWM or blackout
// list. Through Compute at 1 and 3 workers, with two jobs of different
// seeds running at once, every partial equals the reference again, and
// once every Compute has returned only seed-free lists remain: 16 at
// most, one per Steady non-Continuous and per Continuous trajectory.
func TestPrefixesAcrossJobs(t *testing.T) {
	var jobs []*Job
	refs := make(map[*Job][]byte)
	for _, seed := range []int64{31, 32, 33} {
		for _, scale := range []float64{0.01, 0.02} {
			for _, n := range []int{48, 96} {
				j, err := NewJob(Config{N: n, Seed: seed, Scale: scale, ChunkSize: 16})
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				refs[j] = encodePartials(t, referencePartials(t, j))
			}
		}
	}

	if !raceEnabled { // one goroutine: the race detector has nothing to check
		ws := newScratch(NewPrefixes())
		earlier := make(map[int64]int) // devices per seed that restored an earlier seed's snapshot
		var ends map[trajectory]units.Seconds
		for i, j := range jobs {
			if i == 0 || j.cfg.Seed != jobs[i-1].cfg.Seed {
				ends = listEnds(j, ws) // the lists as the earlier seeds left them
			}
			partials, _, e := runInspected(t, j, ws, ends)
			if !bytes.Equal(encodePartials(t, partials), refs[j]) {
				t.Fatalf("%+v: partials on the shared store differ from the unshared ones", j.cfg)
			}
			earlier[j.cfg.Seed] += e
		}
		if earlier[32] == 0 || earlier[33] == 0 {
			t.Fatalf("devices restoring an earlier seed's snapshot, per seed: %v; want some for every later seed", earlier)
		}
	}

	for _, workers := range []int{1, 3} {
		pre := NewPrefixes()
		half := len(jobs) / 2
		for i := 0; i < half; i++ {
			pair := []*Job{jobs[i], jobs[half+i]} // two seeds at once
			errs := make([]error, len(pair))
			got := make([][]*ChunkPartial, len(pair))
			var wg sync.WaitGroup
			for p, j := range pair {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[p], errs[p] = computeAll(j, workers, pre)
				}()
			}
			wg.Wait()
			for p, j := range pair {
				if errs[p] != nil {
					t.Fatal(errs[p])
				}
				if !bytes.Equal(encodePartials(t, got[p]), refs[j]) {
					t.Fatalf("workers %d, %+v beside %+v: partials differ from the unshared ones",
						workers, j.cfg, pair[1-p].cfg)
				}
			}
		}
		if keys := seededKeys(pre); len(keys) > 0 {
			t.Fatalf("workers %d: %d seeded lists outlived every Compute, such as %+v", workers, len(keys), keys[0])
		}
		pre.mu.Lock()
		free := len(pre.lists)
		pre.mu.Unlock()
		if free == 0 || free > 16 {
			t.Fatalf("workers %d: %d seed-free lists remain, want 1 to 16: they live as long as the store", workers, free)
		}
		t.Logf("workers %d: %d seed-free lists remain", workers, free)
	}
}

// Field roles for TestSnapshotCoversState.
const (
	copied = "copied" // saved and restored by core.Instance.Save/Restore
	config = "config" // fixed when the device is built
	memo   = "memo"   // a pure cache: restore keeps or drops it, never copies it
	empty  = "empty"  // asserted empty whenever a snapshot is saved or restored
)

// TestSnapshotCoversState reflects over every struct a device's state
// lives in and fails on any field not classified as copied by the
// snapshot, fixed configuration, or a pure memo. A state field added
// later must be classified here, so it cannot escape the snapshot
// silently.
func TestSnapshotCoversState(t *testing.T) {
	roles := map[reflect.Type]map[string]string{
		reflect.TypeOf(sim.Device{}): {
			"Sys": config, "Array": config, "MCU": config, "NV": config, "Continuous": config,
			"Trace": config, "Log": config, "Obs": config,
			"Stats": copied, "now": copied,
			"pAtT": memo, "pUntil": memo, "pAt": memo, "pAtOK": memo,
		},
		reflect.TypeOf(sim.Stats{}): {
			"Boots": copied, "Brownouts": copied, "TimeOn": copied, "TimeCharging": copied,
			"TimeOff": copied, "EnergyDrawn": copied, "EnergyIntoStore": copied,
		},
		reflect.TypeOf(power.System{}): {
			"Source": config, "In": config, "Bypass": config, "Out": config,
			"cutEsr": memo, "cutDraw": memo, "cutV": memo, "cutN": memo, "cutOld": memo,
		},
		reflect.TypeOf(reservoir.Array{}): {
			"base": config, "banks": config, "switches": config,
			"ShareLoss": copied, "LeakLoss": copied, "Reconfigurations": copied, "Reverts": copied,
			"all": config, "active": memo, "aset": config,
			"actCap": memo, "actESR": memo, "actRated": memo, "actMask": memo,
		},
		reflect.TypeOf(reservoir.Switch{}): {
			"Kind": config, "LatchCap": config, "LatchLeak": config, "HoldVoltage": config,
			"FullVoltage": config, "closed": copied, "latchV": copied,
		},
		reflect.TypeOf(storage.Bank{}): {
			"name": config, "groups": config, "voltage": copied,
			"cap": config, "esr": config, "leakR": config, "rated": config,
			"leakDt": memo, "leakFac": memo, "leakN": memo, "leakOld": memo,
		},
		reflect.TypeOf(device.NVStore{}): {
			"words": copied, "blobs": copied, "writes": copied,
		},
		reflect.TypeOf(core.Runtime{}): {
			"Dev": config, "Modes": config, "Variant": config, "order": config,
			"Reconfigs": copied, "Precharges": copied,
			"modeMemo": memo, "modeNext": memo,
		},
		reflect.TypeOf(core.Instance{}): {
			"Dev": config, "Runtime": config, "Engine": config,
		},
		reflect.TypeOf(task.Engine{}): {
			"Dev": config, "Prog": config, "PM": config,
			"Restarts": copied, "Profile": copied, "powered": copied,
			// ctx holds per-attempt staging, reset by every attempt, and
			// encode/decode buffers whose contents are never read first.
			"ctx": memo, "curTask": memo, "curT": memo, "curProf": memo, "curGen": memo, "curValid": memo,
		},
		reflect.TypeOf(task.TaskProfile{}): {
			"Runs": copied, "Failures": copied, "Time": copied, "Energy": copied,
		},
		reflect.TypeOf(metrics.Recorder{}): {
			"DropSamples": config, "samples": empty, "reports": empty,
		},
		// The rigs' cursors only speed up event lookups: every query
		// returns the same answer from any cursor.
		reflect.TypeOf(env.Pendulum{}): {
			"Schedule": config, "ClassifyBy": config, "FlakyEvery": config, "cur": memo,
		},
		reflect.TypeOf(env.Thermal{}): {
			"Schedule": config, "Low": config, "High": config, "Period": config, "cur": memo,
		},
	}
	for typ, fields := range roles {
		seen := make(map[string]bool, typ.NumField())
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			seen[name] = true
			if _, ok := fields[name]; !ok {
				t.Errorf("%v.%s is not classified: copy it in the snapshot, or list it as configuration or a pure memo", typ, name)
			}
		}
		for name := range fields {
			if !seen[name] {
				t.Errorf("%v has no field %s any more; drop it from the table", typ, name)
			}
		}
	}
}
