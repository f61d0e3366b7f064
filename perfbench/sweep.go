package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"capybara/internal/apps"
	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
)

// traceLayers is the traced run. Every workload measures every layer,
// each driven by the workload's own generated inputs:
//
//   - the fleet job decomposed through the chunk API with a span per
//     call (for the service workload, a share of its job specs), its
//     engine counts, and the tracing overhead against untraced runs;
//   - a daemon session over the workload's service specs, cold then
//     warm, and store Put/Get on this run's partials;
//   - the sampled device loop and the device-step per-call costs.
func (b *bench) traceLayers(ctx context.Context, st *setupState) (map[string]float64, error) {
	st.close() // the sweep boots its own daemons
	tr := newTracer()
	vals := map[string]float64{}
	share := b.seconds / 4

	var newJob []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := fleet.NewJob(config(b.in.Fleet[0], workers)); err != nil {
			return nil, err
		}
		newJob = append(newJob, float64(time.Since(t0))/1e6)
	}
	vals["fleet.new_job_ms"] = median(newJob)

	jobs, err := b.traceFleet(ctx, st, tr, share, vals)
	if err != nil {
		return nil, err
	}
	if err := b.traceService(ctx, st, tr, vals); err != nil {
		return nil, err
	}
	if err := b.traceStore(jobs, vals); err != nil {
		return nil, err
	}
	if err := b.traceDevices(share, vals); err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	printSelfTimes(spans)
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-%d.jsonl", b.in.Workload, b.in.Seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
	return vals, nil
}

// traceFleet decomposes the workload's fleet jobs with spans and reads
// the fleet-layer timings and engine counts off them. For the fleet
// workloads it first times untraced fleet.Run for the same share, whose
// reports the decompositions must reproduce, and prints the tracing
// overhead.
func (b *bench) traceFleet(ctx context.Context, st *setupState, tr *tracer, share time.Duration, vals map[string]float64) ([]*decomposed, error) {
	specs := b.in.Fleet
	refs := make([][]byte, len(specs))
	var untraced []fleetRun
	if st.refs != nil {
		copy(refs, st.refs)
	} else {
		untraced, _ = timeFleet(ctx, specs, time.Now().Add(share), 1)
		for _, r := range untraced {
			if b.attempt(r.err) {
				refs[r.spec] = r.report
			}
		}
	}

	var jobs []*decomposed
	var ops []int
	deadline := time.Now().Add(share)
	for i := 0; i < len(specs) || time.Now().Before(deadline); i++ {
		k := i % len(specs)
		op := int(b.op.Add(1))
		d, err := decompose(ctx, specs[k], tr, op)
		if err != nil {
			return nil, err
		}
		err = checkCohorts(d.res, specs[k].N)
		if err == nil {
			err = checkDigest(d.csv, digest(refs[k]))
		}
		b.attempt(err)
		jobs = append(jobs, d)
		ops = append(ops, op)
	}

	byOp := map[int][]span{}
	for _, s := range tr.snapshot() {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var traced []fleetRun
	var chunk, chunkMax, fold, report []float64
	counts := map[string][]float64{}
	for i, d := range jobs {
		spans := byOp[ops[i]]
		chunks := durationsMS(spans, "fleet.run_chunk")
		_, mx := minMax(chunks)
		chunk, chunkMax = append(chunk, chunks...), append(chunkMax, mx)
		fold = append(fold, durationsMS(spans, "fleet.fold")...)
		report = append(report, durationsMS(spans, "fleet.report")...)
		for _, ms := range durationsMS(spans, "fleet.job") {
			traced = append(traced, fleetRun{spec: i % len(specs), wall: time.Duration(ms * 1e6), report: d.csv})
		}
		for k, v := range engineCounts(d.res) {
			counts[k] = append(counts[k], v)
		}
	}
	vals["fleet.chunk_ms_p50"] = median(chunk)
	vals["fleet.chunk_ms_max"] = median(chunkMax)
	vals["fleet.fold_ms"] = median(fold)
	vals["fleet.report_ms"] = median(report)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		lo, hi := minMax(counts[k])
		vals[k] = median(counts[k])
		fmt.Printf("# engine %-26s median %.6g over %d jobs (min %.6g, max %.6g)\n", k, vals[k], len(counts[k]), lo, hi)
	}
	if untraced != nil {
		overhead("devices_per_s", throughput(specs, untraced), throughput(specs, traced), len(untraced), len(traced))
		overhead("job_p50_ms", median(wallsMS(untraced)), median(wallsMS(traced)), len(untraced), len(traced))
	}
	return jobs, nil
}

// traceService runs a traced daemon session over the workload's service
// specs. On the service workload an untraced session runs first, for
// the tracing overhead.
func (b *bench) traceService(ctx context.Context, st *setupState, tr *tracer, vals map[string]float64) error {
	specs, refs := b.in.Service, st.refs
	if refs == nil {
		var err error
		if refs, err = serviceReferences(ctx, specs); err != nil {
			return err
		}
	}
	reps := max(1, 64/len(specs))
	run := func(tr *tracer) (session, error) {
		d, err := bootDaemon(b.dir)
		if err != nil {
			return session{}, err
		}
		defer d.close()
		s := d.session(ctx, specs, refs, reps, tr, &b.op)
		b.attemptJobs(s)
		return s, nil
	}
	if b.in.Workload == service {
		plain, err := run(nil)
		if err != nil {
			return err
		}
		s, err := run(tr)
		if err != nil {
			return err
		}
		overhead("cold job_p50_ms", jobMedian(plain.cold, totalOf), jobMedian(s.cold, totalOf), len(plain.cold), len(s.cold))
		overhead("warm job_p50_ms", jobMedian(plain.warm, totalOf), jobMedian(s.warm, totalOf), len(plain.warm), len(s.warm))
		serviceLayers(s, vals)
		return nil
	}
	s, err := run(tr)
	if err != nil {
		return err
	}
	serviceLayers(s, vals)
	return nil
}

// serviceLayers reads the fleetsvc metrics off a traced session.
func serviceLayers(s session, vals map[string]float64) {
	all := append(append([]jobResult(nil), s.cold...), s.warm...)
	vals["fleetsvc.submit_ms"] = jobMedian(all, func(r jobResult) time.Duration { return r.submit })
	vals["fleetsvc.queue_ms"] = jobMedian(s.cold, func(r jobResult) time.Duration { return r.queue })
	vals["fleetsvc.run_ms"] = jobMedian(s.cold, func(r jobResult) time.Duration { return r.run })
	vals["fleetsvc.report_fetch_ms"] = jobMedian(s.warm, func(r jobResult) time.Duration { return r.fetch })
	var loaded, chunks int
	for _, r := range s.warm {
		loaded += r.loaded
		chunks += r.chunks
	}
	vals["fleetsvc.loaded_frac"] = ratio(float64(loaded), float64(chunks))
	vals["fleetsvc.heap_kb_per_job"] = s.heapPerJob / 1024
	fmt.Printf("# session: %d cold jobs (p50 %.3f ms), %d warm jobs (p50 %.3f ms)\n",
		len(s.cold), jobMedian(s.cold, totalOf), len(s.warm), jobMedian(s.warm, totalOf))
}

// wallsMS returns the wall times of the runs that ran, in milliseconds.
func wallsMS(runs []fleetRun) []float64 {
	var out []float64
	for _, r := range runs {
		if r.ran() {
			out = append(out, float64(r.wall)/1e6)
		}
	}
	return out
}

func (b *bench) attemptJobs(s session) {
	for _, r := range append(append([]jobResult(nil), s.cold...), s.warm...) {
		b.attempt(r.err)
	}
}

func totalOf(r jobResult) time.Duration { return r.total }

// jobMedian returns the median of f over the jobs that succeeded, in
// milliseconds.
func jobMedian(rs []jobResult, f func(jobResult) time.Duration) float64 {
	var xs []float64
	for _, r := range rs {
		if r.err == nil {
			xs = append(xs, float64(f(r))/1e6)
		}
	}
	return median(xs)
}

// overhead prints a traced figure against its untraced control.
func overhead(name string, untraced, traced float64, nu, nt int) {
	fmt.Printf("# trace overhead %s: untraced %.4g (n=%d), traced %.4g (n=%d), traced/untraced %.4f\n",
		name, untraced, nu, traced, nt, traced/untraced)
}

// traceStore times Store.Put and Store.Get on this run's partials in a
// scratch store.
func (b *bench) traceStore(jobs []*decomposed, vals map[string]float64) error {
	dir, err := os.MkdirTemp(b.dir, "scratch-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := fleetsvc.Open(dir)
	if err != nil {
		return err
	}
	var put, get, size []float64
	for _, d := range jobs {
		for ci, cp := range d.partials {
			entry, err := fleetsvc.EncodeEntry(d.hash, ci, cp)
			if err != nil {
				return err
			}
			size = append(size, float64(len(entry))/1024)
			t0 := time.Now()
			if err := store.Put(d.hash, ci, cp); err != nil {
				return err
			}
			put = append(put, float64(time.Since(t0))/1e3)
			t0 = time.Now()
			_, err = store.Get(d.hash, ci)
			get = append(get, float64(time.Since(t0))/1e3)
			b.attempt(err)
		}
	}
	vals["fleetsvc.store_put_us"] = median(put)
	vals["fleetsvc.store_get_us"] = median(get)
	vals["fleetsvc.entry_kb"] = median(size)
	return nil
}

// traceDevices runs the sampled device loop and the per-call probes.
func (b *bench) traceDevices(share time.Duration, vals map[string]float64) error {
	cc := callCosts{}
	samples, err := deviceLoop(b.in.Fleet[0], share, 8, func(run *apps.Run) {
		if len(cc["sim.drain_ns"]) < 4096 {
			cc.probe(run)
		}
	})
	if err != nil {
		return err
	}
	var sched, build, allocs, exec []float64
	for _, s := range samples {
		sched = append(sched, float64(s.schedule)/1e3)
		build = append(build, float64(s.build)/1e3)
		allocs = append(allocs, float64(s.buildAllocs))
		exec = append(exec, float64(s.execute)/1e3)
	}
	vals["env.schedule_us"] = median(sched)
	vals["apps.build_us"] = median(build)
	vals["apps.build_allocs"] = median(allocs)
	vals["apps.execute_us"] = median(exec)
	for name, xs := range cc {
		vals[name] = median(xs)
	}
	fmt.Printf("# device loop: %d devices, Steady cohorts only (the PWM and blackout scenario traces are unexported)\n", len(samples))
	return nil
}
