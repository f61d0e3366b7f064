package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestMapOrder: results come back in input order for every
// (job count × worker count) combination, including workers > jobs,
// the serial path, and the default worker count.
func TestMapOrder(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 200} {
			got, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
				return i * i, nil
			})
			if err != nil {
				t.Fatalf("Map(workers=%d, n=%d): %v", workers, n, err)
			}
			if len(got) != n {
				t.Fatalf("Map(workers=%d, n=%d): %d results", workers, n, len(got))
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("Map(workers=%d, n=%d): result[%d] = %d, want %d", workers, n, i, v, i*i)
				}
			}
		}
	}
}

// TestMapOrderProperty drives the ordering invariant with testing/quick
// over arbitrary job and worker counts.
func TestMapOrderProperty(t *testing.T) {
	prop := func(jobs uint8, workers uint8) bool {
		n := int(jobs % 64)
		w := int(workers%16) - 1 // exercise <= 0 too
		got, err := Map(context.Background(), w, n, func(_ context.Context, i int) (int, error) {
			return 3*i + 1, nil
		})
		if err != nil || len(got) != n {
			return false
		}
		for i, v := range got {
			if v != 3*i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMapNegativeCount: a negative job count is an error, not a hang.
func TestMapNegativeCount(t *testing.T) {
	if _, err := Map(context.Background(), 4, -1, func(_ context.Context, i int) (int, error) {
		return i, nil
	}); err == nil {
		t.Fatal("negative job count accepted")
	}
}

// TestMapFirstError: when several jobs fail, the lowest-indexed job's
// error is returned — deterministically, at any worker count — and the
// result slice is nil.
func TestMapFirstError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got, err := Map(context.Background(), workers, 20, func(_ context.Context, i int) (int, error) {
			if i >= 5 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if got != nil {
			t.Fatalf("workers=%d: results returned alongside error", workers)
		}
		if err == nil || err.Error() != "job 5 failed" {
			t.Fatalf("workers=%d: err = %v, want job 5's", workers, err)
		}
	}
}

// TestMapErrorCancelsInFlight: the first failure cancels the context
// seen by running jobs and stops dispatching queued ones.
func TestMapErrorCancelsInFlight(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	_, err := Map(context.Background(), 4, 100, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		// Jobs block until the failure cancels them; without
		// cancellation this would wait out the test timeout.
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(30 * time.Second):
			return 0, errors.New("cancellation never arrived")
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := started.Load(); n >= 100 {
		t.Fatalf("all %d jobs started despite early failure", n)
	}
}

// TestMapPanic: a panicking job is recovered into a *PanicError naming
// the job index, on both the serial and the parallel path.
func TestMapPanic(t *testing.T) {
	for _, workers := range []int{1, 8} {
		_, err := Map(context.Background(), workers, 10, func(_ context.Context, i int) (int, error) {
			if i == 7 {
				panic("kaboom")
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Job != 7 || pe.Value != "kaboom" {
			t.Fatalf("workers=%d: PanicError = {Job: %d, Value: %v}", workers, pe.Job, pe.Value)
		}
		if want := "runner: job 7 panicked: kaboom"; err.Error() != want {
			t.Fatalf("workers=%d: message %q, want %q", workers, err.Error(), want)
		}
	}
}

// TestMapCancelledContext: a context cancelled before Map starts
// surfaces as its error without running jobs.
func TestMapCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		ran := false
		_, err := Map(ctx, workers, 5, func(_ context.Context, i int) (int, error) {
			ran = true
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran {
			t.Fatal("serial path ran a job under a cancelled context")
		}
	}
}

// TestRNG: streams are a pure function of (seed, job), and neighboring
// jobs or seeds do not alias.
func TestRNG(t *testing.T) {
	a, b := RNG(42, 3), RNG(42, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, job) diverged")
		}
	}
	seen := map[uint64]string{}
	for seed := int64(0); seed < 4; seed++ {
		for job := 0; job < 16; job++ {
			v := RNG(seed, job).Uint64()
			key := fmt.Sprintf("seed %d job %d", seed, job)
			if prev, dup := seen[v]; dup {
				t.Fatalf("%s collides with %s", key, prev)
			}
			seen[v] = key
		}
	}
}

// TestReseedMatchesRNG: a generator reseeded after arbitrary use yields
// the stream a fresh RNG(seed, job) does, bit for bit, well past the
// source's 607-word ring.
func TestReseedMatchesRNG(t *testing.T) {
	pick := rand.New(rand.NewSource(1))
	var r *rand.Rand // nil on the first pair: Reseed's allocating path
	for k := 0; k < 500; k++ {
		seed, job := pick.Int63()-pick.Int63(), pick.Intn(1<<20)
		if r != nil {
			for i, n := 0, 1000+pick.Intn(1000); i < n; i++ {
				switch pick.Intn(4) {
				case 0:
					r.Float64()
				case 1:
					r.ExpFloat64()
				case 2:
					r.Intn(1 + pick.Intn(1000))
				default:
					r.Int63()
				}
			}
		}
		r = Reseed(r, seed, job)
		fresh := RNG(seed, job)
		for i := 0; i < 1000; i++ {
			var got, want float64
			switch i % 3 {
			case 0:
				got, want = r.Float64(), fresh.Float64()
			case 1:
				got, want = r.ExpFloat64(), fresh.ExpFloat64()
			default:
				got, want = float64(r.Intn(1+i)), float64(fresh.Intn(1+i))
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d job %d: draw %d is %v reseeded, %v fresh", seed, job, i, got, want)
			}
		}
	}
}

// --- Fleet-scale stress tests -----------------------------------------
//
// A fleet-sized sweep pushes tens of thousands of jobs through Map in
// one call. These tests pin the behaviors that matter at that scale: a mid-stream failure stops dispatch promptly instead of
// draining the queue, a panic deep in the job stream still surfaces as
// a *PanicError naming its index, and external cancellation aborts the
// run without waiting for the tail.

const fleetJobs = 12_000

// TestMapFleetScaleError: job 6000 of 12000 fails. The failure must
// surface as the lowest-indexed error (every earlier job succeeds), and
// dispatch must stop well short of the full stream.
func TestMapFleetScaleError(t *testing.T) {
	boom := errors.New("boom at 6000")
	var started atomic.Int32
	got, err := Map(context.Background(), 8, fleetJobs, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 6000 {
			return 0, boom
		}
		if i > 6000 {
			// Post-failure jobs that were already dispatched must see
			// the cancellation; block briefly to give it time to land.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				return 0, errors.New("cancellation never arrived")
			}
		}
		return i, nil
	})
	if got != nil {
		t.Fatal("results returned alongside error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := started.Load(); int(n) >= fleetJobs {
		t.Fatalf("all %d jobs started despite failure at 6000", n)
	}
}

// TestMapFleetScalePanic: a panic buried deep in a fleet-sized stream is
// recovered into a *PanicError carrying the right job index, and the
// remaining queue is not drained. Jobs past the panic wait for the
// cancel it causes, so the other workers cannot drain the queue while
// the panicking one is descheduled; a guard fails the test rather than
// letting a missing cancel hang it.
func TestMapFleetScalePanic(t *testing.T) {
	var started atomic.Int32
	var uncancelled atomic.Bool
	guard, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	_, err := Map(context.Background(), 8, fleetJobs, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		if i == 7777 {
			panic(fmt.Sprintf("device %d exploded", i))
		}
		if i > 7777 {
			select {
			case <-ctx.Done():
			case <-guard.Done():
				uncancelled.Store(true)
			}
		}
		return i, nil
	})
	if uncancelled.Load() {
		t.Fatal("jobs past the panic saw no cancel within 10 s")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Job != 7777 || pe.Value != "device 7777 exploded" {
		t.Fatalf("PanicError = {Job: %d, Value: %v}", pe.Job, pe.Value)
	}
	if n := started.Load(); int(n) >= fleetJobs {
		t.Fatalf("all %d jobs started despite panic at 7777", n)
	}
}

// TestMapFleetScaleCancel: cancelling the caller's context mid-stream
// aborts a fleet-sized run — the error is context.Canceled and the tail
// of the stream never starts.
func TestMapFleetScaleCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	_, err := Map(ctx, 8, fleetJobs, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 500 {
			cancel()
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); int(n) >= fleetJobs {
		t.Fatalf("all %d jobs started despite cancellation at 500", n)
	}
}
