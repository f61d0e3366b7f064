package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"capybara/internal/apps"
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
// canonical report is a function of. The worker count (Jobs) is
// deliberately absent — it never changes a byte of the output, so each
// process in a sharded run picks its own.
type Spec struct {
	N         int
	Seed      int64
	Scale     float64
	ChunkSize int
}

// Exec builds a Config from a received Spec plus this process's worker
// count. Shard workers and the fleet service use it to reconstruct a
// job with their own parallelism.
func (s Spec) Exec(jobs int) Config {
	return Config{N: s.N, Seed: s.Seed, Scale: s.Scale, ChunkSize: s.ChunkSize, Jobs: jobs}
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
// build scratch and the latency staging buffer. Reusing one Scratch
// across many RunChunk calls is what makes per-device cost
// simulation-bound; it is sound because scratch contents never
// influence results (state containers are Reset per device).
type Scratch struct {
	scr apps.Scratch
	lat []units.Seconds
}

// NewScratch builds a Scratch whose recorder drops sample timestamps:
// the fleet folds reports and device counters only, never the
// inter-sample gaps.
func (j *Job) NewScratch() *Scratch {
	ws := &Scratch{}
	ws.scr.Rec.DropSamples = true
	return ws
}

// ChunkPartial is one chunk's fold: per-cohort accumulators, indexed by
// cohort-grid position (untouched cohorts stay zero). Every field is
// exported and value-typed so partials round-trip through gob/JSON for
// the shard wire protocol. Partials written by earlier binaries carry
// diagnostic fields this type no longer has; gob skips them, so old
// stores still load (TestDecodeLegacyEntry).
type ChunkPartial struct {
	Chunk   int
	Cohorts []CohortAccum
}

// RunChunk simulates chunk ci's devices and folds them into a fresh
// partial. ws may be nil (a throwaway scratch is built); passing a
// reused Scratch amortizes recorder allocations across chunks. The
// partial is a pure function of (Spec, ci): any process running the
// same chunk of the same job produces bit-identical accumulators,
// which is the whole basis of the shard protocol's determinism and of
// its freedom to re-lease chunks after failures.
func (j *Job) RunChunk(ctx context.Context, ci int, ws *Scratch) (*ChunkPartial, error) {
	if ci < 0 || ci >= j.NumChunks() {
		return nil, fmt.Errorf("fleet: chunk %d out of range [0, %d)", ci, j.NumChunks())
	}
	if ws == nil {
		ws = j.NewScratch()
	}
	cp := &ChunkPartial{Chunk: ci, Cohorts: make([]CohortAccum, len(j.grid))}
	lo, hi := j.ChunkBounds(ci)
	for d := lo; d < hi; d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := j.simulate(d, ws, cp); err != nil {
			return nil, fmt.Errorf("fleet: device %d: %w", d, err)
		}
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
	}
	return res, nil
}
