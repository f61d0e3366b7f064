package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"capybara/internal/apps"
	"capybara/internal/runner"
	"capybara/internal/units"
)

// A Job is a resolved fleet run: the config with defaults applied, the
// cohort grid, and the fixed chunk decomposition. It is the unit shared
// between the in-process driver (Job.Run) and the fleetsvc daemon with
// its remote workers: the daemon and each worker build a Job from the
// same Spec, agree on SpecHash before any chunk is leased, and then
// Compute/Fold are the only execution primitives either side needs.
// Chunk boundaries depend only on the Spec — never on worker count or
// topology — which is what makes the folded report byte-identical
// however the chunks are distributed.
type Job struct {
	cfg   Config
	scale float64
	chunk int
	grid  []Cohort
	hash  string
}

// Spec is the wire-shippable subset of Config: exactly the fields the
// canonical report is a function of. The worker count (Jobs) is
// deliberately absent — it never changes a byte of the output, so the
// daemon and each remote worker pick their own. The JSON names are the fleet
// daemon's job spec; gob and SpecHash ignore them.
type Spec struct {
	N         int     `json:"n"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	ChunkSize int     `json:"chunk_size"`
}

// Exec builds a Config from a received Spec plus this process's worker
// count. The fleet service and its remote workers use it to reconstruct
// a job with their own parallelism.
func (s Spec) Exec(jobs int) Config {
	return Config{N: s.N, Seed: s.Seed, Scale: s.Scale, ChunkSize: s.ChunkSize, Jobs: jobs}
}

// MaxChunks bounds a job's chunk count. Every holder of a job keeps
// one entry per chunk (the daemon's partial and lease tables, the
// store's partials directory), so a spec asking for more is
// rejected before any of them is sized: N 2·10⁹ at chunk size 1 would
// ask for 2·10⁹. At the default chunk size the bound admits 67 million
// devices.
const MaxChunks = 1 << 20

// Resolve validates s and applies the defaults NewJob applies (Scale 0
// means 1, ChunkSize <= 0 means 64), without building the cohort grid.
// It rejects a non-positive N, a scale outside (0, 1] and a chunk count
// above MaxChunks. NewJob resolves its config through it, so every path
// that builds a job (fleet.Run, capyfleet, the daemon and its remote
// workers) applies the same checks, and a resolved spec
// resolves to itself.
func (s Spec) Resolve() (Spec, error) {
	if s.N <= 0 {
		return Spec{}, fmt.Errorf("fleet: N must be positive, got %d", s.N)
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if !(s.Scale > 0 && s.Scale <= 1) { // NaN fails too
		return Spec{}, fmt.Errorf("fleet: bad scale %g", s.Scale)
	}
	if s.ChunkSize <= 0 {
		s.ChunkSize = defaultChunk
	}
	// NumChunks' count: N/ChunkSize rounded up, without the overflow
	// N+ChunkSize-1 has.
	if chunks := s.N/s.ChunkSize + min(s.N%s.ChunkSize, 1); chunks > MaxChunks {
		return Spec{}, fmt.Errorf("fleet: %d devices in chunks of %d make %d chunks, more than %d",
			s.N, s.ChunkSize, chunks, MaxChunks)
	}
	return s, nil
}

// NewJob validates cfg, applies defaults (Spec.Resolve), and builds the
// cohort grid.
func NewJob(cfg Config) (*Job, error) {
	spec, err := Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize}.Resolve()
	if err != nil {
		return nil, err
	}
	grid, err := cohortGrid(cfg.Seed)
	if err != nil {
		return nil, err
	}
	j := &Job{cfg: cfg, scale: spec.Scale, chunk: spec.ChunkSize, grid: grid}
	j.hash = j.specHash()
	return j, nil
}

// NumChunks returns the number of fixed-size device chunks.
func (j *Job) NumChunks() int { return j.cfg.N/j.chunk + min(j.cfg.N%j.chunk, 1) }

// Cohorts returns the job's cohort grid identities, in grid order (the
// order ChunkPartial.Cohorts and Result.Cohorts are indexed by). The
// returned slice is shared; callers must not mutate it.
func (j *Job) Cohorts() []Cohort { return j.grid }

// chunkBounds returns chunk ci's device index range [lo, hi).
func (j *Job) chunkBounds(ci int) (lo, hi int) {
	lo = ci * j.chunk
	return lo, lo + min(j.chunk, j.cfg.N-lo)
}

// SpecHash fingerprints everything the report depends on: the resolved
// Spec plus the cohort grid this binary derives from it (applications,
// variants, scenarios, and samples of each scenario's environment
// trace). Two binaries that would simulate different populations — a
// changed app table, a reworked trace generator, a different grid order
// — produce different hashes, so a remote worker running a mismatched
// build is refused before it is leased any work.
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
// build scratch, the device-stream generator, the latency staging
// buffer, and the store of event-free prefix snapshots its devices
// resume from and extend (prefix.go). Reusing one Scratch across many
// RunChunk calls is what makes per-device cost simulation-bound and lets
// a cohort's later devices skip the prefix its earlier ones simulated.
//
// Scratch contents decide where a device's simulation starts, never
// what it computes: containers are Reset and the generator reseeded per
// device, and a device resumes only from a snapshot that its own run
// from t = 0 would pass through bit for bit, whichever job saved it.
type Scratch struct {
	scr apps.Scratch
	rng *rand.Rand // nil until the first device seeds it
	lat []units.Seconds
	pre *Prefixes
}

// NewScratch builds a Scratch with a prefix store of its own, whose
// recorder drops sample timestamps: the fleet folds reports and device
// counters only, never the inter-sample gaps.
func (j *Job) NewScratch() *Scratch { return newScratch(NewPrefixes()) }

func newScratch(pre *Prefixes) *Scratch {
	ws := &Scratch{pre: pre}
	ws.scr.Rec.DropSamples = true
	return ws
}

// ChunkPartial is one chunk's fold: per-cohort accumulators, indexed by
// cohort-grid position (untouched cohorts stay zero). Every field is
// exported and value-typed so partials round-trip through gob/JSON, as
// the store entries the daemon keeps and remote workers send. Partials
// written by earlier binaries carry diagnostic fields this type no
// longer has; gob skips them, so old stores still load
// (TestDecodeLegacyEntry).
type ChunkPartial struct {
	Chunk   int
	Cohorts []CohortAccum
}

// RunChunk simulates chunk ci's devices and folds them into a fresh
// partial. ws may be nil (a throwaway scratch is built); passing a
// Scratch reused across chunks amortizes recorder allocations and
// shares each cohort's event-free prefix across them. The
// partial is a pure function of (Spec, ci): any process running the
// same chunk of the same job produces bit-identical accumulators,
// which is the whole basis of the daemon's resume and of its freedom to
// lease a chunk again after a worker fails.
func (j *Job) RunChunk(ctx context.Context, ci int, ws *Scratch) (*ChunkPartial, error) {
	if ci < 0 || ci >= j.NumChunks() {
		return nil, fmt.Errorf("fleet: chunk %d out of range [0, %d)", ci, j.NumChunks())
	}
	if ws == nil {
		ws = j.NewScratch()
	}
	cp := &ChunkPartial{Chunk: ci, Cohorts: make([]CohortAccum, len(j.grid))}
	lo, hi := j.chunkBounds(ci)
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

// Compute runs chunks across workers goroutines (<= 0 means
// GOMAXPROCS) and returns the count it used. It is the one chunk
// executor: Job.Run, the daemon and its remote workers drive their
// chunks through it. Each goroutine owns one Scratch for its lifetime
// and asks next for a chunk whenever it is free to start one, so a
// caller that leases chunks hands out none that no goroutine can take.
// next is called concurrently, with the context the chunks run under;
// it reports false once no chunk is left, and a next that blocks must
// return once that context is done. Every Scratch resumes devices from
// and extends pre, the prefix store; nil means a fresh store for this
// call. A store passed to several Computes, at once or in turn, shares
// each trajectory's snapshots across their jobs, and Compute holds its
// seed in pre while it runs (Prefixes). done receives every partial in
// completion order, which depends on scheduling, and its calls never
// overlap, so it needs no lock of its own.
//
// Compute returns once next has reported false to every goroutine, or
// once ctx is done. The first error from a chunk or from done cancels
// the rest and is returned, never the context.Canceled it caused in
// sibling chunks. A panic in a chunk or in done comes back as a
// *runner.PanicError whose Job is the chunk index.
func (j *Job) Compute(ctx context.Context, workers int, pre *Prefixes, next func(context.Context) (int, bool), done func(*ChunkPartial) error) (int, error) {
	if workers <= 0 {
		workers = runner.DefaultJobs()
	}
	if pre == nil {
		pre = NewPrefixes()
	}
	pre.hold(j.cfg.Seed)
	defer pre.release(j.cfg.Seed)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var mu sync.Mutex // serializes done
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := newScratch(pre)
			for {
				ci, ok := next(ctx)
				if !ok {
					return
				}
				if err := j.computeChunk(ctx, ci, ws, &mu, done); err != nil {
					cancel(err) // the first cause sticks; later ones are no-ops
					return
				}
			}
		}()
	}
	wg.Wait()
	return workers, context.Cause(ctx)
}

// computeChunk runs chunk ci on ws and hands its partial to done under
// mu, recovering a panic in either into a *runner.PanicError.
func (j *Job) computeChunk(ctx context.Context, ci int, ws *Scratch, mu *sync.Mutex, done func(*ChunkPartial) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &runner.PanicError{Job: ci, Value: r}
		}
	}()
	cp, err := j.RunChunk(ctx, ci, ws)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return done(cp)
}

// Run is the one in-process driver. It computes every chunk have lacks
// on Config().Jobs workers through Compute, with one fresh prefix store
// shared by those workers, hands each computed partial
// to done before recording it, folds all chunks in index order, and
// sets the Result's diagnostics (Workers, Elapsed, DevicesSec).
//
// have is nil or holds exactly NumChunks entries, entry i being chunk
// i's partial or nil; a wrong length is an error before any chunk runs,
// and Fold rejects a mislabeled entry. done may be nil. It never sees a
// chunk taken from have, its calls never overlap, and its error fails
// the run and is returned unchanged. A caller that checkpoints in done
// therefore never counts a chunk that is not yet durable.
func (j *Job) Run(ctx context.Context, have []*ChunkPartial, done func(*ChunkPartial) error) (*Result, error) {
	n := j.NumChunks()
	if have != nil && len(have) != n {
		return nil, fmt.Errorf("fleet: have holds %d chunks, want %d", len(have), n)
	}
	partials := make([]*ChunkPartial, n)
	copy(partials, have)
	missing := make(chan int, n)
	for ci, cp := range partials {
		if cp == nil {
			missing <- ci
		}
	}
	close(missing)
	next := func(context.Context) (int, bool) { // never blocks: missing is closed
		ci, ok := <-missing
		return ci, ok
	}

	start := time.Now()
	workers, err := j.Compute(ctx, j.cfg.Jobs, nil, next, func(cp *ChunkPartial) error {
		if done != nil {
			if err := done(cp); err != nil {
				return err
			}
		}
		partials[cp.Chunk] = cp
		return nil
	})
	if err != nil {
		return nil, err
	}
	res, err := j.Fold(partials)
	if err != nil {
		return nil, err
	}
	res.Workers = workers
	res.Elapsed = time.Since(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.DevicesSec = float64(j.cfg.N) / secs
	}
	return res, nil
}

// Fold combines every chunk's partial, in chunk-index order, into the
// final Result. partials must have exactly NumChunks entries with entry
// i holding chunk i — the fixed fold order is what makes the report
// independent of which worker ran which chunk. The caller fills in the
// Result's wall-clock diagnostics (Elapsed, DevicesSec, Workers), as
// Run does.
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
