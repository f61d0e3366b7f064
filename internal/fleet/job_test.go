package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"capybara/internal/runner"
)

func mustJob(t *testing.T, cfg Config) *Job {
	t.Helper()
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestJobSpecHash pins the fingerprint contract: stable across
// rebuilds, sensitive to every canonical field, and blind to the
// worker count (which the daemon and each remote worker choose
// locally).
func TestJobSpecHash(t *testing.T) {
	base := Config{N: 96, Seed: 1, Scale: 0.05, ChunkSize: 8}
	h := mustJob(t, base).SpecHash()
	if h == "" {
		t.Fatal("empty spec hash")
	}
	if got := mustJob(t, base).SpecHash(); got != h {
		t.Fatalf("hash not stable: %s vs %s", h, got)
	}

	canonical := []Config{
		{N: 97, Seed: 1, Scale: 0.05, ChunkSize: 8},
		{N: 96, Seed: 2, Scale: 0.05, ChunkSize: 8},
		{N: 96, Seed: 1, Scale: 0.06, ChunkSize: 8},
		{N: 96, Seed: 1, Scale: 0.05, ChunkSize: 16},
	}
	for _, cfg := range canonical {
		if mustJob(t, cfg).SpecHash() == h {
			t.Fatalf("hash ignored canonical change: %+v", cfg)
		}
	}

	if mustJob(t, Config{N: 96, Seed: 1, Scale: 0.05, ChunkSize: 8, Jobs: 7}).SpecHash() != h {
		t.Fatal("hash depends on the worker count")
	}

	// Spec round trip (what the wire ships) rebuilds the same hash.
	spec := Spec{N: base.N, Seed: base.Seed, Scale: base.Scale, ChunkSize: base.ChunkSize}
	rebuilt := mustJob(t, spec.Exec(3))
	if rebuilt.SpecHash() != h {
		t.Fatal("Spec round trip changed the hash")
	}
}

// TestJobChunks pins the decomposition arithmetic.
func TestJobChunks(t *testing.T) {
	job := mustJob(t, Config{N: 100, Seed: 1, ChunkSize: 8})
	if got := job.NumChunks(); got != 13 {
		t.Fatalf("NumChunks = %d, want 13", got)
	}
	lo, hi := job.chunkBounds(0)
	if lo != 0 || hi != 8 {
		t.Fatalf("chunk 0 = [%d, %d)", lo, hi)
	}
	lo, hi = job.chunkBounds(12)
	if lo != 96 || hi != 100 {
		t.Fatalf("last chunk = [%d, %d), want [96, 100)", lo, hi)
	}
	if got := mustJob(t, Config{N: 5, Seed: 1}).NumChunks(); got != 1 {
		t.Fatalf("small fleet has %d chunks, want 1", got)
	}
}

// TestRunChunkFoldMatchesRun: driving the chunk API by hand — with the
// partials gob round-tripped, as remote workers' results are — folds to
// the same report as Run.
func TestRunChunkFoldMatchesRun(t *testing.T) {
	cfg := Config{N: 96, Seed: 1, Jobs: 2, Scale: 0.05, ChunkSize: 16}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	job := mustJob(t, cfg)
	ws := job.NewScratch()
	partials := make([]*ChunkPartial, job.NumChunks())
	for ci := range partials {
		cp, err := job.RunChunk(context.Background(), ci, ws)
		if err != nil {
			t.Fatal(err)
		}
		// Round trip through gob exactly as the wire does.
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			t.Fatal(err)
		}
		var decoded ChunkPartial
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		partials[ci] = &decoded
	}
	folded, err := job.Fold(partials)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := folded.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("hand-driven chunk fold differs from Run:\n--- Run ---\n%s--- chunks ---\n%s",
			want.String(), got.String())
	}
}

// TestRunChunkValidation covers the chunk API's error paths.
func TestRunChunkValidation(t *testing.T) {
	job := mustJob(t, Config{N: 16, Seed: 1, Scale: 0.05, ChunkSize: 8})
	if _, err := job.RunChunk(context.Background(), -1, nil); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if _, err := job.RunChunk(context.Background(), 2, nil); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := job.Fold(make([]*ChunkPartial, 1)); err == nil {
		t.Fatal("short partial slice accepted")
	}
	cp, err := job.RunChunk(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Fold([]*ChunkPartial{cp, nil}); err == nil {
		t.Fatal("nil partial accepted")
	}
	if _, err := job.Fold([]*ChunkPartial{cp, cp}); err == nil {
		t.Fatal("mislabeled partial accepted")
	}
}

// counter returns a next that hands out chunks 0 to n-1 once each.
func counter(n int) func(context.Context) (int, bool) {
	var handed atomic.Int32
	return func(context.Context) (int, bool) {
		ci := int(handed.Add(1)) - 1
		return ci, ci < n
	}
}

// firstThenBlock returns a next that hands out chunk ci once and then
// blocks until its context is done. handed is closed as ci goes out.
func firstThenBlock(ci int) (next func(context.Context) (int, bool), handed <-chan struct{}) {
	ch := make(chan struct{})
	var once atomic.Bool
	return func(ctx context.Context) (int, bool) {
		if !once.Swap(true) {
			close(ch)
			return ci, true
		}
		<-ctx.Done()
		return 0, false
	}, ch
}

// TestJobCompute pins the executor's contract: every chunk next hands
// out reaches done exactly once, done calls never overlap, the first
// failure comes back as itself rather than the context.Canceled it
// caused in sibling chunks (a panic in done as a *runner.PanicError
// naming the chunk) and releases a sibling blocked in next, and Compute
// returns on a cancelled ctx or a next with no chunk.
func TestJobCompute(t *testing.T) {
	job := mustJob(t, Config{N: 96, Seed: 1, Scale: 0.01, ChunkSize: 4})
	n := job.NumChunks()
	ctx := context.Background()
	const k = 5
	// returns waits for a Compute started in the background.
	returns := func(t *testing.T, ret <-chan error) error {
		t.Helper()
		select {
		case err := <-ret:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("Compute did not return")
			return nil
		}
	}

	t.Run("every chunk once, never overlapping", func(t *testing.T) {
		seen := make([]int, n) // unsynchronized: -race flags overlapping calls
		var inflight, overlaps atomic.Int32
		workers, err := job.Compute(ctx, 4, nil, counter(n), func(cp *ChunkPartial) error {
			if inflight.Add(1) != 1 {
				overlaps.Add(1)
			}
			seen[cp.Chunk]++
			time.Sleep(time.Millisecond) // widen the window an overlap needs
			inflight.Add(-1)
			return nil
		})
		if err != nil || workers != 4 {
			t.Fatalf("Compute = (%d, %v), want (4, nil)", workers, err)
		}
		for ci, c := range seen {
			if c != 1 {
				t.Fatalf("chunk %d reached done %d times", ci, c)
			}
		}
		if o := overlaps.Load(); o != 0 {
			t.Fatalf("%d overlapping done calls", o)
		}
	})

	t.Run("done error", func(t *testing.T) {
		boom := errors.New("boom")
		_, err := job.Compute(ctx, 4, nil, counter(n), func(cp *ChunkPartial) error {
			if cp.Chunk == k {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})

	t.Run("done panic", func(t *testing.T) {
		_, err := job.Compute(ctx, 4, nil, counter(n), func(cp *ChunkPartial) error {
			if cp.Chunk == k {
				panic("exploded")
			}
			return nil
		})
		var pe *runner.PanicError
		if !errors.As(err, &pe) || pe.Job != k || pe.Value != "exploded" {
			t.Fatalf("err = %#v, want *runner.PanicError{Job: %d}", err, k)
		}
	})

	t.Run("cancel while next blocks", func(t *testing.T) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		next, handed := firstThenBlock(0)
		ret := make(chan error, 1)
		go func() {
			_, err := job.Compute(ctx, 2, nil, next, func(*ChunkPartial) error { return nil })
			ret <- err
		}()
		<-handed
		cancel()
		if err := returns(t, ret); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("failure releases a blocked next", func(t *testing.T) {
		boom := errors.New("boom")
		next, _ := firstThenBlock(k)
		ret := make(chan error, 1)
		go func() {
			_, err := job.Compute(ctx, 2, nil, next, func(*ChunkPartial) error { return boom })
			ret <- err
		}()
		if err := returns(t, ret); err != boom {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})

	t.Run("no chunk", func(t *testing.T) {
		workers, err := job.Compute(ctx, 0, nil, counter(0), func(*ChunkPartial) error {
			t.Error("done called with no chunks")
			return nil
		})
		if err != nil || workers != runtime.GOMAXPROCS(0) {
			t.Fatalf("Compute = (%d, %v), want (%d, nil)", workers, err, runtime.GOMAXPROCS(0))
		}
	})
}

// TestJobRun pins the driver's contract: every chunk have lacks reaches
// done exactly once and no chunk from have ever does, a full have
// computes nothing and renders Run's bytes, a done error comes back as
// itself, and a have of the wrong length is rejected before any chunk
// runs.
func TestJobRun(t *testing.T) {
	cfg := Config{N: 42, Seed: 3, Jobs: 2, Scale: 0.01, ChunkSize: 4} // 11 chunks, the last holding 2 devices
	want, _ := render(t, cfg)
	ctx := context.Background()
	job := mustJob(t, cfg)
	n := job.NumChunks()
	all := make([]*ChunkPartial, n)
	for ci := range all {
		cp, err := job.RunChunk(ctx, ci, nil)
		if err != nil {
			t.Fatal(err)
		}
		all[ci] = cp
	}
	csv := func(res *Result) string {
		t.Helper()
		var b bytes.Buffer
		if err := res.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	t.Run("missing chunks reach done once", func(t *testing.T) {
		have := make([]*ChunkPartial, n)
		for ci := 0; ci < n; ci += 3 {
			have[ci] = all[ci]
		}
		seen := make([]int, n)
		res, err := job.Run(ctx, have, func(cp *ChunkPartial) error {
			seen[cp.Chunk]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range seen {
			want := 1
			if have[ci] != nil {
				want = 0
			}
			if c != want {
				t.Fatalf("chunk %d (loaded %v) reached done %d times, want %d", ci, have[ci] != nil, c, want)
			}
		}
		if csv(res) != want {
			t.Fatal("report over a partial have differs from Run's")
		}
	})

	t.Run("full have computes nothing", func(t *testing.T) {
		res, err := job.Run(ctx, all, func(cp *ChunkPartial) error {
			t.Errorf("chunk %d computed with every chunk in have", cp.Chunk)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if csv(res) != want {
			t.Fatal("report over a full have differs from Run's")
		}
	})

	t.Run("done error", func(t *testing.T) {
		boom := errors.New("boom")
		_, err := job.Run(ctx, nil, func(cp *ChunkPartial) error {
			if cp.Chunk == 5 {
				return boom
			}
			return nil
		})
		if err != boom {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	})

	t.Run("wrong have length", func(t *testing.T) {
		for _, have := range [][]*ChunkPartial{all[:n-1], append(all[:n:n], nil)} {
			_, err := job.Run(ctx, have, func(cp *ChunkPartial) error {
				t.Errorf("chunk %d computed for a have of %d entries", cp.Chunk, len(have))
				return nil
			})
			if err == nil {
				t.Fatalf("have of %d entries accepted for %d chunks", len(have), n)
			}
		}
	})
}
