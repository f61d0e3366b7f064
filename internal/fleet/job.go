package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"capybara/internal/apps"
	"capybara/internal/power"
	"capybara/internal/units"
)

// A Job is a resolved fleet run: the config with defaults applied, the
// cohort grid, and the fixed chunk decomposition. It is the unit shared
// between the in-process engine (Run) and the distributed shard
// protocol (internal/shard): a coordinator and its workers each build a
// Job from the same Spec, agree on SpecHash before any chunk is leased,
// and then RunChunk/Fold are the only execution primitives either side
// needs. Chunk boundaries depend only on the Spec — never on worker
// count or topology — which is what makes the folded report
// byte-identical however the chunks are distributed.
type Job struct {
	cfg   Config
	scale float64
	chunk int
	grid  []Cohort
	hash  string
}

// Spec is the wire-shippable subset of Config: exactly the fields the
// canonical report is a function of. The execution knobs (Jobs, NoMemo,
// NoRecycle, CacheSize) are deliberately absent — they never change a
// byte of the output, so each process in a sharded run picks its own.
type Spec struct {
	N         int
	Seed      int64
	Scale     float64
	ChunkSize int
}

// ExecOptions bundles the execution knobs a process chooses for itself
// when reconstructing a job from a Spec: parallelism and the memo and
// recycling layers. None of these change a byte of the report — that
// is exactly why they are not part of Spec.
type ExecOptions struct {
	Jobs      int
	NoMemo    bool
	CacheSize int
	NoRecycle bool
}

// Exec builds a Config from a received Spec plus local execution
// options. Shard workers use it to reconstruct the coordinator's job
// with their own parallelism and cache settings.
func (s Spec) Exec(o ExecOptions) Config {
	return Config{
		N:         s.N,
		Seed:      s.Seed,
		Scale:     s.Scale,
		ChunkSize: s.ChunkSize,
		Jobs:      o.Jobs,
		NoMemo:    o.NoMemo,
		CacheSize: o.CacheSize,
		NoRecycle: o.NoRecycle,
	}
}

// NewJob validates cfg, applies defaults, and builds the cohort grid.
func NewJob(cfg Config) (*Job, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("fleet: N must be positive, got %d", cfg.N)
	}
	scale := cfg.Scale
	if scale == 0 {
		scale = 1.0
	}
	if scale < 0 || scale > 1 {
		return nil, fmt.Errorf("fleet: bad scale %g", scale)
	}
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = defaultChunk
	}
	grid, err := cohortGrid(cfg.Seed)
	if err != nil {
		return nil, err
	}
	j := &Job{cfg: cfg, scale: scale, chunk: chunk, grid: grid}
	j.hash = j.specHash()
	return j, nil
}

// Config returns the job's configuration as given to NewJob.
func (j *Job) Config() Config { return j.cfg }

// Spec returns the canonical subset of the config, with defaults
// resolved, for shipping to shard workers.
func (j *Job) Spec() Spec {
	return Spec{N: j.cfg.N, Seed: j.cfg.Seed, Scale: j.scale, ChunkSize: j.chunk}
}

// NumChunks returns the number of fixed-size device chunks.
func (j *Job) NumChunks() int { return (j.cfg.N + j.chunk - 1) / j.chunk }

// Cohorts returns the job's cohort grid identities, in grid order (the
// order ChunkPartial.Cohorts and Result.Cohorts are indexed by). The
// returned slice is shared; callers must not mutate it.
func (j *Job) Cohorts() []Cohort { return j.grid }

// ChunkBounds returns chunk ci's device index range [lo, hi).
func (j *Job) ChunkBounds(ci int) (lo, hi int) {
	lo, hi = ci*j.chunk, (ci+1)*j.chunk
	if hi > j.cfg.N {
		hi = j.cfg.N
	}
	return lo, hi
}

// SpecHash fingerprints everything the report depends on: the resolved
// Spec plus the cohort grid this binary derives from it (applications,
// variants, scenarios, and samples of each scenario's environment
// trace). Two binaries that would simulate different populations — a
// changed app table, a reworked trace generator, a different grid order
// — produce different hashes, so a shard worker running a mismatched
// build is rejected before it is leased any work.
func (j *Job) SpecHash() string { return j.hash }

func (j *Job) specHash() string {
	h := sha256.New()
	buf := make([]byte, 0, 64)
	num := func(x float64) {
		buf = strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		buf = append(buf, '\n')
		h.Write(buf)
	}
	str := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	str("capyfleet-spec-v1")
	num(float64(j.cfg.N))
	num(float64(j.cfg.Seed))
	num(j.scale)
	num(float64(j.chunk))
	for _, e := range latencyEdges {
		num(float64(e))
	}
	num(float64(len(j.grid)))
	for _, c := range j.grid {
		str(c.App)
		str(c.Variant.String())
		str(c.Scenario.String())
		if c.trace != nil {
			// Sampling the trace at fixed instants captures the derived
			// scenario parameters (duty cycles, outage windows) without
			// needing the trace types to be serializable.
			for _, t := range []units.Seconds{0, 0.75, 3.5, 17.25, 61.5, 240.75} {
				num(c.trace.Level(t))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Scratch is one worker's recycled simulation state: the application
// build scratch (recorder + memo cache), the latency staging buffer,
// and the per-cohort memo caches. Reusing one Scratch across many
// RunChunk calls is what makes per-device cost simulation-bound; it is
// sound because scratch contents never influence results (state
// containers are Reset per device; cache hits are bit-identical to
// recomputes).
type Scratch struct {
	scr apps.Scratch
	lat []units.Seconds
	// memo holds one cache per cohort, allocated lazily the first time
	// a device of that cohort runs on this worker. Per-cohort caches
	// are what make the lookups pay (a cohort's devices share hardware
	// and source, so their solves actually recur) and what the
	// per-cohort diagnostics are cut from. A nil slice means
	// memoization is disabled for the job.
	memo []*power.SegmentCache
}

func (ws *Scratch) memoFor(j *Job, ci int) *power.SegmentCache {
	if ws.memo == nil {
		return nil
	}
	if ws.memo[ci] == nil {
		ws.memo[ci] = power.NewSegmentCache(j.cfg.CacheSize)
	}
	return ws.memo[ci]
}

// NewScratch builds a Scratch configured for this job: per-cohort memo
// caches unless the job disables memoization or recycling, and a
// recorder that drops sample timestamps — the fleet folds reports and
// device counters only, never the inter-sample gaps.
func (j *Job) NewScratch() *Scratch {
	ws := &Scratch{}
	ws.scr.Rec.DropSamples = true
	if !j.cfg.NoRecycle && !j.cfg.NoMemo {
		ws.memo = make([]*power.SegmentCache, len(j.grid))
	}
	return ws
}

// ChunkPartial is one chunk's fold: per-cohort accumulators (indexed by
// cohort-grid position; untouched cohorts stay zero) plus the cache
// deltas observed while running the chunk (diagnostic only). Every
// field is exported and value-typed so partials round-trip through
// gob/JSON for the shard wire protocol.
type ChunkPartial struct {
	Chunk   int
	Cohorts []CohortAccum
	Cache   power.CacheStats
	// Memo is the per-cohort memo-stat delta for this chunk (grid
	// order); nil when memoization is off. Like the cache stats it is
	// an execution diagnostic, excluded from the canonical report and
	// the spec hash.
	Memo []power.CacheStats
}

// RunChunk simulates chunk ci's devices and folds them into a fresh
// partial. ws may be nil (a throwaway scratch is built); passing a
// reused Scratch amortizes recorder and memo-cache allocations across
// chunks. The partial is a pure function of (Spec, ci): any process
// running the same chunk of the same job produces bit-identical
// accumulators, which is the whole basis of the shard protocol's
// determinism and of its freedom to re-lease chunks after failures.
func (j *Job) RunChunk(ctx context.Context, ci int, ws *Scratch) (*ChunkPartial, error) {
	if ci < 0 || ci >= j.NumChunks() {
		return nil, fmt.Errorf("fleet: chunk %d out of range [0, %d)", ci, j.NumChunks())
	}
	if ws == nil {
		ws = j.NewScratch()
	}
	cp := &ChunkPartial{Chunk: ci, Cohorts: make([]CohortAccum, len(j.grid))}
	// Snapshot the recycled caches so the chunk reports deltas: caches
	// accumulate across chunks, and only deltas sum meaningfully. The
	// lookup totals are deterministic; the hit/miss split depends on
	// cache warmth, which is why all of this is diagnostic only.
	var memoBefore []power.CacheStats
	if ws.memo != nil {
		memoBefore = make([]power.CacheStats, len(ws.memo))
		for i, c := range ws.memo {
			if c != nil {
				memoBefore[i] = c.Stats()
			}
		}
	}
	lo, hi := j.ChunkBounds(ci)
	for d := lo; d < hi; d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := j.simulate(d, ws, cp); err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", d, err)
		}
	}
	if ws.memo != nil {
		cp.Memo = make([]power.CacheStats, len(ws.memo))
		for i, c := range ws.memo {
			if c == nil {
				continue
			}
			after, b := c.Stats(), memoBefore[i]
			cp.Memo[i] = power.CacheStats{
				Hits:        after.Hits - b.Hits,
				Misses:      after.Misses - b.Misses,
				Uncacheable: after.Uncacheable - b.Uncacheable,
				Entries:     after.Entries,
			}
			cp.Cache.Add(cp.Memo[i])
		}
		// Worker-level Entries is a sum of per-cohort snapshots, not a
		// delta; Fold zeroes it, matching the pre-cohort behavior.
	}
	return cp, nil
}

// Fold combines every chunk's partial, in chunk-index order, into the
// final Result. partials must have exactly NumChunks entries with entry
// i holding chunk i — the fixed fold order is what makes the report
// independent of which worker ran which chunk. The caller fills in the
// Result's wall-clock diagnostics (Elapsed, DevicesSec, Workers).
func (j *Job) Fold(partials []*ChunkPartial) (*Result, error) {
	if len(partials) != j.NumChunks() {
		return nil, fmt.Errorf("fleet: folding %d partials, want %d", len(partials), j.NumChunks())
	}
	res := &Result{Config: j.cfg, Cohorts: make([]CohortStats, len(j.grid))}
	for i := range j.grid {
		res.Cohorts[i].Cohort = j.grid[i]
	}
	for ci, cp := range partials {
		if cp == nil {
			return nil, fmt.Errorf("fleet: missing partial for chunk %d", ci)
		}
		if cp.Chunk != ci {
			return nil, fmt.Errorf("fleet: partial %d labeled chunk %d", ci, cp.Chunk)
		}
		if len(cp.Cohorts) != len(j.grid) {
			return nil, fmt.Errorf("fleet: chunk %d has %d cohorts, want %d", ci, len(cp.Cohorts), len(j.grid))
		}
		for i := range cp.Cohorts {
			if cp.Cohorts[i].Devices == 0 {
				continue
			}
			if err := res.Cohorts[i].CohortAccum.Merge(&cp.Cohorts[i]); err != nil {
				return nil, err
			}
		}
		cache := cp.Cache
		cache.Entries = 0 // per-chunk snapshots of recycled caches don't sum
		res.Cache.Add(cache)
		if len(cp.Memo) == len(j.grid) {
			if res.CohortCache == nil {
				res.CohortCache = make([]power.CacheStats, len(j.grid))
			}
			for i, m := range cp.Memo {
				m.Entries = 0
				res.CohortCache[i].Add(m)
			}
		}
	}
	return res, nil
}
