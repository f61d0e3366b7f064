package fleetsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"capybara/internal/fleet"
)

// Service is the fleet-as-a-service layer: a queue of fleet jobs whose
// specs, states, and chunk checkpoints all live in the store directory,
// so the daemon owning a Service can be killed at any instant and a
// successor resumes every in-flight job from its completed chunks.
//
// Contract: a job's final report is byte-identical to fleet.Run with
// the same spec, however many times the service died and resumed while
// running it, and whatever other jobs ran concurrently. Two jobs with
// the same SpecHash share chunk checkpoints through the store (the
// cross-run memo); jobs with different hashes cannot touch each other's
// partials — the store is content-addressed, so isolation is by
// construction, not by locking discipline.

// ServiceConfig parameterizes a Service. Only Store is required.
type ServiceConfig struct {
	// Store holds checkpoints, job journals, and finished reports.
	Store *Store
	// Jobs is each running job's worker parallelism (<= 0 GOMAXPROCS).
	Jobs int
	// MaxConcurrent bounds how many jobs run at once (<= 0 means 2).
	// Queued jobs start in submission order as slots free up.
	MaxConcurrent int
}

// Job states. queued and running survive a daemon restart (the
// successor re-enqueues them); done, failed, and canceled are terminal.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

// SpecInfo is the JSON shape of a job's spec, with defaults resolved.
type SpecInfo struct {
	N         int     `json:"n"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	ChunkSize int     `json:"chunk_size"`
}

func (si SpecInfo) spec() fleet.Spec {
	return fleet.Spec{N: si.N, Seed: si.Seed, Scale: si.Scale, ChunkSize: si.ChunkSize}
}

// JobStatus is a point-in-time snapshot of one job, as served by the
// status API. Done = Loaded + Computed; Loaded counts chunks folded
// from pre-existing checkpoints (a resumed or memo-sharing job's
// savings), Computed counts chunks simulated fresh for this job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Spec     SpecInfo `json:"spec"`
	SpecHash string   `json:"spec_hash"`
	Chunks   int      `json:"chunks"`
	Done     int      `json:"done"`
	Loaded   int      `json:"loaded"`
	Computed int      `json:"computed"`
	Devices  int      `json:"devices"`
	Error    string   `json:"error,omitempty"`
}

// CohortProgress is one cohort's running partial fold — served while a
// job runs, merged in chunk-index order over completed chunks only, so
// a snapshot at a given done-count is deterministic.
type CohortProgress struct {
	Cohort   string  `json:"cohort"`
	Devices  int     `json:"devices"`
	Events   int     `json:"events"`
	Accuracy float64 `json:"accuracy_mean"`
}

// jobRecord is the journaled form of a job: everything a successor
// daemon needs to resume it. The spec hash is recorded for diagnosis
// but recomputed by the resuming binary — checkpoints are addressed by
// the recomputed hash, so a drifted binary recomputes instead of
// folding stale partials (the same guarantee the shard handshake gives
// across processes, here across daemon generations).
type jobRecord struct {
	ID       string   `json:"id"`
	Spec     SpecInfo `json:"spec"`
	SpecHash string   `json:"spec_hash"`
	State    string   `json:"state"`
	Error    string   `json:"error,omitempty"`
}

// job is one tracked job. fjob is rebuilt from the spec by whichever
// binary runs the service, so its SpecHash — and therefore checkpoint
// addressing — is always the running binary's truth.
type job struct {
	id   string
	fjob *fleet.Job
	spec SpecInfo

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	errMsg   string
	loaded   int
	computed int
	devices  int
	partials []*fleet.ChunkPartial // completed chunks by index, for snapshots
	watchers map[int]chan struct{}
	nextW    int
}

// notify nudges every watcher (coalescing: a slow watcher misses
// intermediate states, never the latest).
func (j *job) notify() {
	j.mu.Lock()
	for _, ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}

// transition moves state from -> to; reports whether it happened (a
// concurrent cancel may have won).
func (j *job) transition(from, to string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != from {
		return false
	}
	j.state = to
	return true
}

// Service implements the persistent job queue. See the contract above.
type Service struct {
	cfg   ServiceConfig
	store *Store

	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
}

// NewService opens a service over cfg.Store, re-enqueues every
// journaled job that was queued or running when the previous owner
// died, and starts accepting submissions.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Store == nil {
		return nil, errors.New("fleetsvc: service requires a store")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:    cfg,
		store:  cfg.Store,
		ctx:    ctx,
		cancel: cancel,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		jobs:   make(map[string]*job),
		nextID: 1,
	}
	if err := s.recover(); err != nil {
		cancel()
		return nil, err
	}
	return s, nil
}

// Close stops the service: running jobs are interrupted mid-chunk and
// left journaled as running, exactly like a crash, so a successor
// resumes them from their completed chunks. Blocks until every job
// goroutine has unwound.
func (s *Service) Close() {
	s.cancel()
	s.wg.Wait()
}

func (s *Service) jobsDir() string { return filepath.Join(s.store.Dir(), "jobs") }

func (s *Service) journalPath(id string) string {
	return filepath.Join(s.jobsDir(), id+".json")
}

func (s *Service) reportPath(id string, asJSON bool) string {
	ext := ".report.csv"
	if asJSON {
		ext = ".report.json"
	}
	return filepath.Join(s.jobsDir(), id+ext)
}

// recover loads the journal and re-enqueues unfinished jobs in ID order
// (IDs are monotonic, so this is submission order).
func (s *Service) recover() error {
	ents, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return fmt.Errorf("fleetsvc: scanning jobs: %w", err)
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.Contains(name, ".report.") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(ids)
	for _, id := range ids {
		data, err := os.ReadFile(s.journalPath(id))
		if err != nil {
			return fmt.Errorf("fleetsvc: reading journal %s: %w", id, err)
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("fleetsvc: journal %s: %w", id, err)
		}
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
		fj, err := fleet.NewJob(s.engineConfig(rec.Spec))
		if err != nil {
			// A journaled spec this binary rejects: mark it failed, keep
			// the record for inspection, don't poison startup.
			rec.State = StateFailed
			rec.Error = err.Error()
			if werr := s.writeJournal(&rec); werr != nil {
				return werr
			}
			continue
		}
		j := s.track(id, fj, rec.Spec)
		j.state = rec.State
		j.errMsg = rec.Error
		switch rec.State {
		case StateDone:
			// Trust the persisted report if it exists; otherwise re-run —
			// every chunk is checkpointed, so the redo only re-renders.
			if _, err := os.Stat(s.reportPath(id, false)); err != nil {
				j.state = StateQueued
				s.enqueue(j)
			} else {
				j.loaded = fj.NumChunks()
				j.devices = rec.Spec.N
			}
		case StateQueued, StateRunning:
			j.state = StateQueued
			s.enqueue(j)
		}
	}
	return nil
}

func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}

func (s *Service) engineConfig(si SpecInfo) fleet.Config {
	return si.spec().Exec(s.cfg.Jobs)
}

// track registers a job in the in-memory table. Callers hold s.mu or
// are single-threaded startup.
func (s *Service) track(id string, fj *fleet.Job, spec SpecInfo) *job {
	jctx, jcancel := context.WithCancel(s.ctx)
	j := &job{
		id:       id,
		fjob:     fj,
		spec:     spec,
		ctx:      jctx,
		cancel:   jcancel,
		state:    StateQueued,
		partials: make([]*fleet.ChunkPartial, fj.NumChunks()),
		watchers: make(map[int]chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// Submit validates spec, journals it, and queues it. The returned
// status is the freshly queued job (it may already be running by the
// time the caller reads the snapshot).
func (s *Service) Submit(spec fleet.Spec) (JobStatus, error) {
	fj, err := fleet.NewJob(spec.Exec(s.cfg.Jobs))
	if err != nil {
		return JobStatus{}, err
	}
	resolved := fj.Spec()
	si := SpecInfo{N: resolved.N, Seed: resolved.Seed, Scale: resolved.Scale, ChunkSize: resolved.ChunkSize}

	s.mu.Lock()
	if s.ctx.Err() != nil {
		s.mu.Unlock()
		return JobStatus{}, errors.New("fleetsvc: service is shut down")
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	j := s.track(id, fj, si)
	s.mu.Unlock()

	if err := s.journal(j); err != nil {
		return JobStatus{}, err
	}
	s.enqueue(j)
	return s.status(j), nil
}

func (s *Service) enqueue(j *job) {
	s.wg.Add(1)
	go s.runJob(j)
}

// runJob owns one job's lifecycle: wait for a slot, run the chunked
// engine against the shared store, persist the report, journal the
// terminal state. On service shutdown it returns with the journal still
// saying queued/running — the resume marker a successor picks up.
func (s *Service) runJob(j *job) {
	defer s.wg.Done()
	defer j.notify()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-j.ctx.Done():
		// Service shutdown (leave the journal as-is for resume) or a
		// cancel while queued (Cancel journaled it already).
		return
	}
	if !j.transition(StateQueued, StateRunning) {
		return // canceled while waiting for the slot
	}
	if err := s.journal(j); err != nil {
		s.finish(j, nil, err)
		return
	}
	j.notify()

	res, _, err := RunWithStore(j.ctx, s.store, s.engineConfig(j.spec), func(p Progress) {
		j.mu.Lock()
		if p.Partial != nil && p.Partial.Chunk < len(j.partials) {
			j.partials[p.Partial.Chunk] = p.Partial
		}
		j.loaded = p.Loaded
		j.computed = p.Done - p.Loaded
		j.devices = p.Devices
		j.mu.Unlock()
		j.notify()
	})
	s.finish(j, res, err)
}

// finish journals a job's terminal state — or leaves it resumable if
// the run was interrupted by service shutdown.
func (s *Service) finish(j *job, res *fleet.Result, err error) {
	if err != nil {
		if s.ctx.Err() != nil {
			// Shutdown: the journal still says running; a successor
			// resumes from the checkpointed chunks.
			return
		}
		if j.ctx.Err() != nil {
			// Canceled via the API; Cancel journaled the state.
			return
		}
		j.mu.Lock()
		j.state = StateFailed
		j.errMsg = err.Error()
		j.mu.Unlock()
		_ = s.journal(j)
		return
	}

	// Render and persist both report formats before declaring done, so
	// a done journal entry always has servable reports next to it.
	var csv, js bytes.Buffer
	err = res.WriteCSV(&csv)
	if err == nil {
		err = res.WriteJSON(&js)
	}
	if err == nil {
		err = writeFileAtomic(s.jobsDir(), j.id+".report.csv", csv.Bytes(), s.store.seq.Add(1))
	}
	if err == nil {
		err = writeFileAtomic(s.jobsDir(), j.id+".report.json", js.Bytes(), s.store.seq.Add(1))
	}
	j.mu.Lock()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else if !terminal(j.state) {
		j.state = StateDone
	}
	j.mu.Unlock()
	_ = s.journal(j)
}

// Cancel stops a queued or running job. Terminal jobs are left as they
// are (canceling a done job is a no-op, not an error).
func (s *Service) Cancel(id string) (JobStatus, error) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("fleetsvc: no job %s", id)
	}
	j.mu.Lock()
	if !terminal(j.state) {
		j.state = StateCanceled
	}
	j.mu.Unlock()
	j.cancel()
	if err := s.journal(j); err != nil {
		return JobStatus{}, err
	}
	j.notify()
	return s.status(j), nil
}

// Status returns a job's snapshot.
func (s *Service) Status(id string) (JobStatus, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, false
	}
	return s.status(j), true
}

// List returns every job's snapshot in submission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	return out
}

// Report returns a finished job's persisted report bytes.
func (s *Service) Report(id string, asJSON bool) ([]byte, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, fmt.Errorf("fleetsvc: no job %s", id)
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("fleetsvc: job %s is %s, not done", id, state)
	}
	return os.ReadFile(s.reportPath(id, asJSON))
}

// Cohorts returns the running per-cohort fold of a job's completed
// chunks, merged in chunk-index order (deterministic for a given
// done-count). Cohorts no completed chunk has touched are omitted.
func (s *Service) Cohorts(id string) ([]CohortProgress, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, fmt.Errorf("fleetsvc: no job %s", id)
	}
	grid := j.fjob.Cohorts()
	accum := make([]fleet.CohortAccum, len(grid))
	j.mu.Lock()
	for _, cp := range j.partials {
		if cp == nil {
			continue
		}
		for i := range cp.Cohorts {
			if cp.Cohorts[i].Devices == 0 {
				continue
			}
			if err := accum[i].Merge(&cp.Cohorts[i]); err != nil {
				j.mu.Unlock()
				return nil, err
			}
		}
	}
	j.mu.Unlock()
	var out []CohortProgress
	for i := range accum {
		if accum[i].Devices == 0 {
			continue
		}
		out = append(out, CohortProgress{
			Cohort:   grid[i].String(),
			Devices:  accum[i].Devices,
			Events:   accum[i].Events,
			Accuracy: accum[i].Accuracy.Mean,
		})
	}
	return out, nil
}

// Watch subscribes to a job's progress nudges. The returned channel
// receives (coalesced) signals whenever the job's status changes; stop
// unsubscribes. ok is false for unknown jobs.
func (s *Service) Watch(id string) (ch <-chan struct{}, stop func(), ok bool) {
	j, found := s.lookup(id)
	if !found {
		return nil, nil, false
	}
	c := make(chan struct{}, 1)
	j.mu.Lock()
	w := j.nextW
	j.nextW++
	j.watchers[w] = c
	j.mu.Unlock()
	return c, func() {
		j.mu.Lock()
		delete(j.watchers, w)
		j.mu.Unlock()
	}, true
}

func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service) status(j *job) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		State:    j.state,
		Spec:     j.spec,
		SpecHash: j.fjob.SpecHash(),
		Chunks:   j.fjob.NumChunks(),
		Done:     j.loaded + j.computed,
		Loaded:   j.loaded,
		Computed: j.computed,
		Devices:  j.devices,
		Error:    j.errMsg,
	}
}

// journal persists a job's current record atomically.
func (s *Service) journal(j *job) error {
	j.mu.Lock()
	rec := jobRecord{
		ID:       j.id,
		Spec:     j.spec,
		SpecHash: j.fjob.SpecHash(),
		State:    j.state,
		Error:    j.errMsg,
	}
	j.mu.Unlock()
	return s.writeJournal(&rec)
}

func (s *Service) writeJournal(rec *jobRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("fleetsvc: journaling %s: %w", rec.ID, err)
	}
	data = append(data, '\n')
	if err := writeFileAtomic(s.jobsDir(), rec.ID+".json", data, s.store.seq.Add(1)); err != nil {
		return fmt.Errorf("fleetsvc: journaling %s: %w", rec.ID, err)
	}
	return nil
}
