package fleetsvc

import (
	"context"
	"fmt"
	"time"

	"capybara/internal/fleet"
)

// The chunked engine: the in-process fleet.Job path with the store in
// the loop. Load every chunk the store already holds, compute only the
// rest, and checkpoint each computed chunk before it is recorded — after
// a crash at any instant, a rerun repeats at most the chunks that were
// in flight. The final fold is fleet.Fold in fixed chunk-index order,
// so the report is byte-identical to an uninterrupted fleet.Run
// whatever mixture of loaded and computed partials produced it.

// RunStats reports how a chunked run's work divided between the store
// and fresh computation — the observable the cross-run-memo tests (and
// the resume smoke) assert on.
type RunStats struct {
	Chunks   int // total chunks in the job
	Loaded   int // chunks folded from store checkpoints
	Computed int // chunks simulated in this run
}

// Progress is one engine progress observation, emitted after every
// chunk that completes (loaded or computed).
type Progress struct {
	Done    int // chunks complete so far
	Chunks  int // total chunks
	Loaded  int
	Devices int // devices in completed chunks
	// Partial is the chunk that just completed. Observers may retain
	// it (the engine never mutates a completed partial) but must not
	// modify it.
	Partial *fleet.ChunkPartial
}

// RunWithStore executes job in-process on job.Config().Jobs workers,
// resuming from and checkpointing to store (which may be nil: a plain
// uncheckpointed run). onProgress, when non-nil, observes every
// completed chunk; its calls never overlap.
func RunWithStore(ctx context.Context, store *Store, job *fleet.Job, onProgress func(Progress)) (*fleet.Result, RunStats, error) {
	cfg := job.Config()
	n := job.NumChunks()
	stats := RunStats{Chunks: n}
	partials := make([]*fleet.ChunkPartial, n)
	devices := 0
	emit := func(cp *fleet.ChunkPartial) {
		lo, hi := job.ChunkBounds(cp.Chunk)
		devices += hi - lo
		if onProgress != nil {
			onProgress(Progress{
				Done:    stats.Loaded + stats.Computed,
				Chunks:  n,
				Loaded:  stats.Loaded,
				Devices: devices,
				Partial: cp,
			})
		}
	}

	// Phase 1: fold everything the store already holds.
	if store != nil {
		var err error
		if partials, err = store.Load(ctx, job); err != nil {
			return nil, stats, err
		}
	}
	missing := make(chan int, n)
	for ci, cp := range partials {
		if cp == nil {
			missing <- ci
			continue
		}
		stats.Loaded++
		emit(cp)
	}
	close(missing)

	// Phase 2: compute the rest, checkpointing each chunk before it is
	// recorded. Completion order is scheduling-dependent; only the final
	// index-ordered fold is canonical.
	hash := job.SpecHash()
	start := time.Now()
	workers, err := job.Compute(ctx, cfg.Jobs, missing, func(cp *fleet.ChunkPartial) error {
		if store != nil {
			if err := store.Put(hash, cp.Chunk, cp); err != nil {
				return fmt.Errorf("checkpointing chunk %d: %w", cp.Chunk, err)
			}
		}
		partials[cp.Chunk] = cp
		stats.Computed++
		emit(cp)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}

	res, err := job.Fold(partials)
	if err != nil {
		return nil, stats, err
	}
	res.Workers = workers
	res.Elapsed = time.Since(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.DevicesSec = float64(cfg.N) / secs
	}
	return res, stats, nil
}
