package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"capybara/internal/fleet"
)

// workers is the simulation parallelism of every fleet job the
// benchmark runs: the container's two CPUs.
const workers = 2

// fleetRun is one timed in-process job: fleet.Run plus rendering the
// CSV report, which is what a one-shot user waits for.
type fleetRun struct {
	spec   int // index into the workload's fleet specs
	wall   time.Duration
	report []byte
	err    error
}

// ran reports whether the job ran to a rendered report, so its wall
// time is a sample even if the report then failed a check.
func (r fleetRun) ran() bool { return r.report != nil }

// timeFleet runs the workload's fleet jobs in rounds — each job once
// per round, back to back — for at least minRounds rounds and then until
// the deadline, which may cut the last round short. Every job starts
// with fresh engine caches, as a one-shot run does. It also returns each
// round's peak RSS in MiB.
func timeFleet(ctx context.Context, specs []fleet.Spec, deadline time.Time, minRounds int) ([]fleetRun, []float64) {
	var runs []fleetRun
	var peaks []float64
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		resetPeakRSS()
		for k, s := range specs {
			if round >= minRounds && !time.Now().Before(deadline) {
				return runs, peaks
			}
			t0 := time.Now()
			res, err := fleet.Run(ctx, config(s, workers))
			var report []byte
			if err == nil {
				report, err = csvReport(res)
			}
			wall := time.Since(t0)
			if err == nil {
				err = checkCohorts(res, s.N)
			}
			runs = append(runs, fleetRun{spec: k, wall: wall, report: report, err: err})
			if ctx.Err() != nil {
				return runs, peaks
			}
		}
		peaks = append(peaks, peakRSSMiB())
	}
	return runs, peaks
}

// throughput is the fleet jobs' devices per second: every spec's devices
// over the sum of each spec's median wall time, so each fleet seed
// weighs by its work and a stalled run moves nothing but its own
// sample. A run whose report fails its check still counts: it ran.
func throughput(specs []fleet.Spec, runs []fleetRun) float64 {
	walls := make([][]float64, len(specs))
	for _, r := range runs {
		if r.ran() {
			walls[r.spec] = append(walls[r.spec], r.wall.Seconds())
		}
	}
	var devices, secs float64
	for k, s := range specs {
		if len(walls[k]) > 0 {
			devices += float64(s.N)
			secs += median(walls[k])
		}
	}
	return devices / secs
}

// decomposed is one job driven through the chunk API by the benchmark.
type decomposed struct {
	res      *fleet.Result
	partials []*fleet.ChunkPartial
	hash     string
	csv      []byte
}

// decompose runs s the way fleet.Run does — fleet.NewJob, one
// Job.NewScratch per worker, Job.RunChunk on two goroutines, Job.Fold in
// chunk order — but from the benchmark's own code, so each call gets a
// span (op is the operation id shared by the job's spans; the traced
// run reads the fleet-layer timings off them).
func decompose(ctx context.Context, s fleet.Spec, tr *tracer, op int) (*decomposed, error) {
	root := tr.begin("fleet.job", 0, op)
	defer root.end()
	d := &decomposed{}
	sp := tr.begin("fleet.new_job", root.id, op)
	job, err := fleet.NewJob(config(s, workers))
	sp.end()
	if err != nil {
		return nil, err
	}
	d.hash = job.SpecHash()
	n := job.NumChunks()
	d.partials = make([]*fleet.ChunkPartial, n)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := tr.begin("fleet.new_scratch", root.id, op)
			ws := job.NewScratch()
			sp.end()
			for {
				ci := int(next.Add(1) - 1)
				if ci >= n {
					return
				}
				sp := tr.begin("fleet.run_chunk", root.id, op)
				cp, err := job.RunChunk(ctx, ci, ws)
				sp.end()
				if err != nil {
					errs[w] = err
					return
				}
				d.partials[ci] = cp
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sp = tr.begin("fleet.fold", root.id, op)
	res, err := job.Fold(d.partials)
	sp.end()
	if err != nil {
		return nil, err
	}
	d.res = res
	sp = tr.begin("fleet.report", root.id, op)
	var csv, js bytes.Buffer
	err = res.WriteCSV(&csv)
	if err == nil {
		err = res.WriteJSON(&js)
	}
	sp.end()
	if err != nil {
		return nil, err
	}
	d.csv = csv.Bytes()
	return d, nil
}

// reference computes s's report on a different path from fleet.Run's:
// every chunk on a fresh scratch, so its engine caches start cold, and
// the chunks handed out in reverse order. The report is a pure function
// of the spec, so the bytes must agree; a cache, replay or scheduling
// bug that leaks into the report changes one side only.
func reference(ctx context.Context, s fleet.Spec) ([]byte, error) {
	job, err := fleet.NewJob(config(s, workers))
	if err != nil {
		return nil, err
	}
	partials := make([]*fleet.ChunkPartial, job.NumChunks())
	next := atomic.Int64{}
	next.Store(int64(len(partials)))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := int(next.Add(-1)); ci >= 0 && errs[w] == nil; ci = int(next.Add(-1)) {
				partials[ci], errs[w] = job.RunChunk(ctx, ci, job.NewScratch())
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res, err := job.Fold(partials)
	if err == nil {
		err = checkCohorts(res, s.N)
	}
	if err != nil {
		return nil, err
	}
	return csvReport(res)
}

// referenceReports computes every fleet spec's reference report: what
// each timed fleet.Run report is checked against.
func referenceReports(ctx context.Context, specs []fleet.Spec) ([][]byte, error) {
	var reports [][]byte
	for _, s := range specs {
		r, err := reference(ctx, s)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}
