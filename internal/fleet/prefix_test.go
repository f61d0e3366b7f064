package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"sort"
	"testing"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/device"
	"capybara/internal/env"
	"capybara/internal/metrics"
	"capybara/internal/power"
	"capybara/internal/reservoir"
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

// TestSharedPrefixMatchesFresh runs every device of a shape with many
// devices per cohort (20, with PWM and blackout traces) once through
// one recycled worker scratch, where later devices of a cohort resume
// from its event-free prefix, and once through a nil scratch, from
// t = 0. Both must agree on every statistic, accuracy and latency, bit
// for bit, and at least two in five devices must have restored. (About
// 44 % do: the Fixed and Capy-P cohorts charge for 50 to 480 s before
// their first task attempt, the first point a snapshot can be taken,
// so most of their devices see their event before any snapshot.)
func TestSharedPrefixMatchesFresh(t *testing.T) {
	seeds := []int64{3, 11, 12345}
	if raceEnabled {
		seeds = seeds[:1] // one goroutine: size adds no interleaving
	}
	var devices, restored int
	var skipped, prefix float64
	for _, seed := range seeds {
		j, err := NewJob(Config{N: 960, Seed: seed, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		ws := j.NewScratch()
		for d := 0; d < j.cfg.N; d++ {
			before := ws.snaps[d%len(j.grid)] // the list only grows by appending
			shared, _, err := j.execute(d, ws)
			if err != nil {
				t.Fatalf("seed %d device %d shared: %v", seed, d, err)
			}
			first := shared.Schedule.Events[0].At
			if at, ok := restorePoint(before, first); ok {
				restored++
				skipped += float64(at)
			}
			devices++
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
	}
	if 5*restored < 2*devices {
		t.Fatalf("%d of %d devices restored a snapshot, want at least half", restored, devices)
	}
	t.Logf("%d of %d devices restored; they skipped %.1f%% of the pre-event simulated time", restored, devices, 100*skipped/prefix)
}

// unsharedPartials computes every chunk of j on a scratch another job
// made, which j's devices must not restore from: each runs from t = 0.
func unsharedPartials(t *testing.T, j *Job, foreign *Scratch) []*ChunkPartial {
	t.Helper()
	partials := make([]*ChunkPartial, j.NumChunks())
	for ci := range partials {
		cp, err := j.RunChunk(context.Background(), ci, foreign)
		if err != nil {
			t.Fatal(err)
		}
		partials[ci] = cp
	}
	return partials
}

func encodePartials(t *testing.T, partials []*ChunkPartial) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, cp := range partials {
		if err := EncodePartial(&buf, cp); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSharedPrefixJobRun: Job.Run at two workers, each resuming devices
// from its own scratch's snapshots, renders the report of devices that
// all ran from t = 0.
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
	other, err := NewJob(Config{N: 48, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := j.Fold(unsharedPartials(t, j, other.NewScratch()))
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

// TestForeignScratchYieldsOwnPartials: a scratch job A filled with its
// snapshots, handed to job B (another seed, so other PWM and blackout
// traces), yields B's partials exactly, and B's devices add nothing to
// it.
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
	unsharedPartials(t, a, ws) // a's own scratch: fills its snapshot lists
	held := 0
	for _, l := range ws.snaps {
		held += len(l)
	}
	if held == 0 {
		t.Fatal("job A's devices saved no snapshot")
	}
	got := encodePartials(t, unsharedPartials(t, b, ws))
	wantParts := make([]*ChunkPartial, b.NumChunks())
	for ci := range wantParts {
		if wantParts[ci], err = b.RunChunk(context.Background(), ci, b.NewScratch()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, encodePartials(t, wantParts)) {
		t.Fatal("job B's partials on job A's scratch differ from B's own")
	}
	after := 0
	for _, l := range ws.snaps {
		after += len(l)
	}
	if after != held {
		t.Fatalf("job B's devices changed job A's snapshot lists: %d snapshots, had %d", after, held)
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
