// Package runner is the sweep engine behind the paper's evaluation
// grids. Every figure is a set of fully independent simulations (an
// app×system matrix cell, one seed of a multi-seed run, one point of a
// design-space sweep), so regenerating them is embarrassingly parallel:
// Map fans the jobs across a bounded worker pool while guaranteeing
// that parallelism can never change a paper number.
//
// The guarantees that make that safe:
//
//   - Results are returned in input order regardless of completion
//     order, so downstream tables render identically at any worker
//     count.
//   - Jobs share no RNG state: each job derives its own *rand.Rand
//     (see RNG) or constructs one from the experiment seed, so the
//     random streams are a function of (seed, job index) alone.
//   - The first error — by job index, not by completion time, so the
//     reported error is deterministic too — cancels the context seen
//     by in-flight jobs and is returned.
//   - A panicking job is recovered into a *PanicError naming the job
//     index instead of tearing down the whole process.
package runner

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// DefaultJobs is the worker count Map uses when given workers <= 0:
// every available CPU.
func DefaultJobs() int { return runtime.GOMAXPROCS(0) }

// PanicError is a job panic converted into an error. Job is the index
// of the offending job; Value is the recovered panic value.
type PanicError struct {
	Job   int
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Job, e.Value)
}

// Map runs fn(ctx, i) for every i in [0, n) across workers goroutines
// (<= 0 means DefaultJobs, 1 means serial on the calling goroutine) and
// returns the n results in input order regardless of completion order.
//
// The first error by job index cancels ctx for in-flight jobs, jobs not
// yet started are skipped, and that error is returned with a nil slice.
// A panic inside fn is recovered into a *PanicError carrying the job
// index. A ctx that is cancelled before a job starts surfaces as
// ctx.Err().
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, job int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative job count %d", n)
	}
	if workers <= 0 {
		workers = DefaultJobs()
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)

	if workers <= 1 {
		// Serial path: same job decomposition, same index order, no
		// goroutines — what -jobs 1 forces.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			results[i], errs[i] = call(ctx, i, fn)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = call(ctx, i, fn)
				if errs[i] != nil {
					cancel() // first failure stops in-flight work
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// Mark never-started jobs so an outer cancellation (rather
			// than a job failure) still reports an error below.
			errs[i] = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// call invokes one job, converting a panic into a *PanicError.
func call[T any](ctx context.Context, i int, fn func(context.Context, int) (T, error)) (out T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: i, Value: r}
		}
	}()
	return fn(ctx, i)
}

// RNG returns an independent deterministic generator for job i of a
// sweep seeded with seed. The stream is a pure function of (seed, i):
// the pair is mixed through SplitMix64 so that adjacent seeds or
// adjacent job indices do not produce correlated streams, and no two
// jobs ever share *rand.Rand state. Each call allocates a fresh source
// of about 5 KiB; a loop that draws one stream after another reuses
// one generator through Reseed instead.
func RNG(seed int64, job int) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, job)))
}

// Reseed returns a generator for the stream RNG(seed, job) starts. A
// nil r gets a fresh one from RNG; otherwise r itself is reseeded and
// returned, whatever it drew before. (*rand.Rand).Seed resets the
// source exactly as NewSource seeds a new one, so the two streams are
// bit-identical, and Reseed allocates nothing. Seeding costs the same
// either way. The caller must own r: a reseeded generator's previous
// stream is gone.
func Reseed(r *rand.Rand, seed int64, job int) *rand.Rand {
	if r == nil {
		return RNG(seed, job)
	}
	r.Seed(streamSeed(seed, job))
	return r
}

// streamSeed mixes (seed, job) into the source seed of job's stream.
func streamSeed(seed int64, job int) int64 {
	return int64(mix(uint64(seed) + uint64(job)*0x9e3779b97f4a7c15))
}

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
