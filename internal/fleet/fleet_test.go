package fleet

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// testConfig keeps wall time small: 96 devices covers every cohort of
// the 48-cell grid twice at 5% event scale.
func testConfig(jobs int) Config {
	return Config{N: 96, Seed: 1, Jobs: jobs, Scale: 0.05}
}

func render(t *testing.T, cfg Config) (string, string) {
	t.Helper()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var csv, js bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return csv.String(), js.String()
}

// TestFleetDeterministicAcrossJobs is the engine's core guarantee: the
// canonical report is byte-identical at any worker count.
func TestFleetDeterministicAcrossJobs(t *testing.T) {
	baseCSV, baseJSON := render(t, testConfig(1))
	for _, jobs := range []int{3, 8} {
		csv, js := render(t, testConfig(jobs))
		if csv != baseCSV {
			t.Fatalf("CSV differs at jobs=%d:\n--- jobs=1 ---\n%s--- jobs=%d ---\n%s",
				jobs, baseCSV, jobs, csv)
		}
		if js != baseJSON {
			t.Fatalf("JSON differs at jobs=%d", jobs)
		}
	}
}

// TestFleetRecycleInvariant: building a device on a worker's recycled,
// dirty scratch must not change anything it simulates. For every
// device, a build on the fleet's scratch and a fresh build (nil
// scratch, as the experiments build) agree on every statistic
// TestFleetStatsGolden hashes, on accuracy, and on every reported
// latency, bit for bit.
func TestFleetRecycleInvariant(t *testing.T) {
	j, err := NewJob(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ws := j.NewScratch()
	restarts := 0
	for d := 0; d < j.cfg.N; d++ {
		recycled, _, err := j.execute(d, ws)
		if err != nil {
			t.Fatalf("device %d recycled: %v", d, err)
		}
		fresh, _, err := j.execute(d, nil)
		if err != nil {
			t.Fatalf("device %d fresh: %v", d, err)
		}
		var got, want bytes.Buffer
		writeDeviceStats(&got, d, recycled)
		writeDeviceStats(&want, d, fresh)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("device %d: recycled build's statistics differ from a fresh build's", d)
		}
		if got, want := recycled.Accuracy(), fresh.Accuracy(); got != want {
			t.Fatalf("device %d: accuracy %+v, fresh %+v", d, got, want)
		}
		gotLat, wantLat := recycled.Rec.Latencies(), fresh.Rec.Latencies()
		if len(gotLat) != len(wantLat) {
			t.Fatalf("device %d: %d latencies, fresh %d", d, len(gotLat), len(wantLat))
		}
		for i := range gotLat {
			if math.Float64bits(float64(gotLat[i])) != math.Float64bits(float64(wantLat[i])) {
				t.Fatalf("device %d: latency %d is %v, fresh %v", d, i, gotLat[i], wantLat[i])
			}
		}
		restarts += fresh.Inst.Engine.Restarts
	}
	if restarts == 0 {
		t.Fatal("no device restarted a task; the spec no longer covers power failures")
	}
}

// TestFleetReportShape sanity-checks the simulated population: every
// cohort got devices, events were scheduled, and the Capybara variants
// actually exercised reconfiguration.
func TestFleetReportShape(t *testing.T) {
	res, err := Run(context.Background(), testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cohorts) != 48 {
		t.Fatalf("grid has %d cohorts, want 48", len(res.Cohorts))
	}
	reconfigs := 0
	for i := range res.Cohorts {
		c := &res.Cohorts[i]
		if c.Devices != 2 {
			t.Fatalf("cohort %v has %d devices, want 2", c.Cohort, c.Devices)
		}
		if c.Events == 0 {
			t.Fatalf("cohort %v scheduled no events", c.Cohort)
		}
		if got := c.Correct + c.Misclassified + c.Missed; got > c.Events {
			t.Fatalf("cohort %v outcomes %d exceed events %d", c.Cohort, got, c.Events)
		}
		reconfigs += c.Reconfigs
	}
	if reconfigs == 0 {
		t.Fatal("no cohort reconfigured — Capybara variants missing from the grid")
	}
	if res.DevicesSec <= 0 {
		t.Fatalf("throughput diagnostic %v", res.DevicesSec)
	}
	if res.Diagnostics() == "" {
		t.Fatal("empty diagnostics")
	}

	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// Header + 48 cohorts + TOTAL.
	if len(lines) != 50 {
		t.Fatalf("CSV has %d lines, want 50", len(lines))
	}
	if !strings.HasPrefix(lines[len(lines)-1], "TOTAL,") {
		t.Fatalf("last line %q is not the TOTAL row", lines[len(lines)-1])
	}
}

// TestCohortLabelsMatchEveryGrid: the shared labels name every job's
// grid, whatever its seed, so a stored partial's cohorts can be named
// without rebuilding its Job.
func TestCohortLabelsMatchEveryGrid(t *testing.T) {
	labels := CohortLabels()
	for _, seed := range []int64{0, 1, 7, -3, 1 << 40} {
		job, err := NewJob(Config{N: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		grid := job.Cohorts()
		if len(grid) != len(labels) {
			t.Fatalf("seed %d: grid has %d cohorts, labels %d", seed, len(grid), len(labels))
		}
		for i, c := range grid {
			if c.String() != labels[i] {
				t.Fatalf("seed %d: cohort %d is %s, label %s", seed, i, c, labels[i])
			}
		}
	}
}

// TestFleetConfigValidation covers the error paths.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := Run(context.Background(), Config{N: 1, Scale: 2}); err == nil {
		t.Fatal("scale 2 accepted")
	}
	if _, err := Run(context.Background(), Config{N: 1, Scale: -0.1}); err == nil {
		t.Fatal("negative scale accepted")
	}
}

// TestFleetCancellation: a canceled context aborts the run with the
// context error rather than completing.
func TestFleetCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testConfig(2)); err == nil {
		t.Fatal("canceled run completed")
	}
}
