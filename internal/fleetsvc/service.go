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
// running it, whichever workers computed its chunks, and whatever other
// jobs ran concurrently. Two jobs with the same SpecHash share chunk
// checkpoints through the store (the cross-run memo); jobs with
// different hashes cannot touch each other's partials — the store is
// content-addressed, so isolation is by construction, not by locking
// discipline.

// ServiceConfig parameterizes a Service. Only Store is required.
type ServiceConfig struct {
	// Store holds checkpoints, the job journal, and finished reports.
	Store *Store
	// Jobs is how many chunks of each running job this process
	// computes at once. At 0 (or less) it computes none: remote workers
	// (Work) lease every chunk.
	Jobs int
	// MaxConcurrent bounds how many jobs run at once (<= 0 means 2).
	// Queued jobs start in submission order as slots free up.
	MaxConcurrent int
}

// Job states. On disk a job is queued until it reaches one of the
// terminal states done, failed, or canceled; a successor daemon
// re-enqueues every queued job. running is held in memory only.
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

// JobStatus is a point-in-time snapshot of one job, as served by the
// status API. Done = Loaded + Computed. Loaded counts chunks this job
// did not compute because the spec's results were already durable:
// chunks folded from checkpoints (a resumed or memo-sharing job's
// savings), or every chunk when the spec's reports were on disk and the
// job read nothing. Computed counts chunks simulated fresh for this job.
type JobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Spec     fleet.Spec `json:"spec"` // defaults resolved
	SpecHash string     `json:"spec_hash"`
	Chunks   int        `json:"chunks"`
	Done     int        `json:"done"`
	Loaded   int        `json:"loaded"`
	Computed int        `json:"computed"`
	Devices  int        `json:"devices"`
	Error    string     `json:"error,omitempty"`
}

// CohortProgress is one cohort's partial fold, merged in chunk-index
// order over completed chunks only, so a snapshot at a given done-count
// is deterministic. A running job folds the chunks it has recorded, a
// done job the chunks the store holds for its spec, and a canceled or
// failed job serves none (see Service.Cohorts).
type CohortProgress struct {
	Cohort   string  `json:"cohort"`
	Devices  int     `json:"devices"`
	Events   int     `json:"events"`
	Accuracy float64 `json:"accuracy_mean"`
}

// jobRecord is the journaled form of a job: everything a successor
// daemon needs to resume it. Each state change appends one to the
// journal log (writeJournal), and a job's last record wins. The spec
// hash is recorded for diagnosis but recomputed by the resuming binary
// — checkpoints and reports are addressed by the recomputed hash, so a
// binary whose cohort grid drifted recomputes instead of folding stale
// partials (the same check a lease request makes across processes,
// here across daemon generations).
type jobRecord struct {
	ID       string     `json:"id"`
	Spec     fleet.Spec `json:"spec"`
	SpecHash string     `json:"spec_hash"`
	State    string     `json:"state"`
	Error    string     `json:"error,omitempty"`
}

// job is one tracked job. Its spec, hash and chunk count are fixed when
// it is tracked and read without the lock. The hash comes from a
// fleet.Job this binary built from the spec, so checkpoint addressing
// is always the running binary's truth. fjob, partials and leases serve
// only a job that can still run: a terminal job drops them (the store
// holds its partials and reports) and keeps its status alone.
type job struct {
	id     string
	spec   fleet.Spec // defaults resolved
	hash   string
	chunks int

	ctx    context.Context
	cancel context.CancelFunc

	// journalMu serializes the job's journal writes with the state
	// changes they record (Service.end), so the state published last is
	// the one journaled last.
	journalMu sync.Mutex

	mu sync.Mutex
	// fjob is the fleet.Job built to resolve the spec when no tracked
	// job had it; nil for a spec the index knew, and handed to the run
	// by start.
	fjob     *fleet.Job
	partials []*fleet.ChunkPartial // completed chunks by index, for snapshots; nil once terminal
	// leases hands out the chunks the job still needs (lease.go). run
	// opens it once the checkpoints are loaded; nil before then and
	// once the job is terminal.
	leases   *leaseTable
	state    string
	errMsg   string
	loaded   int
	computed int
	devices  int
	watchers map[int]chan struct{}
	nextW    int
}

// notify nudges every watcher (coalescing: a slow watcher misses
// intermediate states, never the latest).
func (j *job) notify() {
	j.mu.Lock()
	// order-independent: every watcher gets the same nudge.
	for _, ch := range j.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	j.mu.Unlock()
}

// start moves a queued job to running and hands over the fleet.Job
// built for it, if any. ok is false if a cancel won.
func (j *job) start() (fj *fleet.Job, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, false
	}
	j.state = StateRunning
	fj, j.fjob = j.fjob, nil
	return fj, true
}

// ended reports whether the job is in a terminal state.
func (j *job) ended() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminal(j.state)
}

// end moves the job to state, unless it is terminal already, and drops
// what only a run needs: the fleet.Job, the partials and the lease table
// go, and the context is canceled so the service context stops holding
// it. Its counts are final: a chunk its canceled run still finishes is
// not counted. It publishes the state only: Service.end journals it
// first.
func (j *job) end(state, errMsg string) {
	j.mu.Lock()
	if !terminal(j.state) {
		j.state, j.errMsg = state, errMsg
	}
	j.fjob, j.partials = nil, nil
	j.dropLeases()
	j.mu.Unlock()
	j.cancel()
}

// reported ends the job done with every chunk counted as loaded: its
// spec's reports are on disk, so it loads, computes and renders
// nothing.
func (j *job) reported() {
	j.mu.Lock()
	if !terminal(j.state) {
		j.loaded, j.devices = j.chunks, j.spec.N
	}
	j.mu.Unlock()
	j.end(StateDone, "")
}

// Service implements the persistent job queue. See the contract above.
type Service struct {
	cfg   ServiceConfig
	store *Store
	clock clock // the lease tables' time
	// prefixes is the event-free prefix store every local Compute
	// shares, for the service's lifetime: a job resumes its devices from
	// prefixes that earlier jobs simulated.
	prefixes *fleet.Prefixes

	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int
	// specs indexes every tracked job's resolved spec to what a
	// fleet.Job fixed for it, so a resubmitted spec skips building one.
	specs map[fleet.Spec]specInfo

	// logMu serializes appends to the journal log. logLen is the log's
	// length after its last whole record, and logErr, once set, fails
	// every later append: see writeJournal.
	logMu  sync.Mutex
	log    *os.File
	logLen int64
	logErr error
}

// specInfo is what this binary's fleet.Job fixes for a resolved spec:
// its spec hash and chunk count.
type specInfo struct {
	hash   string
	chunks int
}

// NewService opens a service over cfg.Store, re-enqueues every
// journaled job that was not terminal when the previous owner died,
// and starts accepting submissions.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Store == nil {
		return nil, errors.New("fleetsvc: service requires a store")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	log, err := os.OpenFile(filepath.Join(cfg.Store.Dir(), "jobs", journalLog), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleetsvc: opening the journal: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		store:    cfg.Store,
		clock:    wallClock{},
		prefixes: fleet.NewPrefixes(),
		ctx:      ctx,
		cancel:   cancel,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		jobs:     make(map[string]*job),
		nextID:   1,
		specs:    make(map[fleet.Spec]specInfo),
		log:      log,
	}
	if err := s.recover(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the service: running jobs are interrupted mid-chunk and
// left journaled as queued, exactly like a crash, so a successor
// resumes them from their completed chunks. Blocks until every job
// goroutine has unwound, then closes the journal log.
func (s *Service) Close() {
	s.cancel()
	s.wg.Wait()
	s.logMu.Lock()
	// Every append already returned its write's error, and nothing is
	// buffered, so closing has nothing left to report.
	_ = s.log.Close()
	s.logMu.Unlock()
}

func (s *Service) jobsDir() string { return filepath.Join(s.store.Dir(), "jobs") }

func (s *Service) reportsDir() string { return filepath.Join(s.store.Dir(), "reports") }

// reportName is the file in reports/ that holds the report of every job
// whose spec hashes to hash: a report is a pure function of the hash.
func reportName(hash string, asJSON bool) string {
	if asJSON {
		return hash + ".json"
	}
	return hash + ".csv"
}

// haveReports reports whether both report formats for hash are on disk.
func (s *Service) haveReports(hash string) bool {
	for _, asJSON := range []bool{false, true} {
		if _, err := os.Stat(filepath.Join(s.reportsDir(), reportName(hash, asJSON))); err != nil {
			return false
		}
	}
	return true
}

// recover replays the journal and re-enqueues unfinished jobs in ID
// order (IDs are monotonic, so this is submission order). The journal
// is the per-job files older binaries wrote, then the log; for each job
// the last record wins. The log's torn tail, if a kill left one, is cut
// off before anything is appended.
func (s *Service) recover() error {
	recs, err := s.readLegacyJournals()
	if err != nil {
		return err
	}
	path := filepath.Join(s.jobsDir(), journalLog)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("fleetsvc: reading the journal: %w", err)
	}
	logRecs, complete, err := parseJournal(data)
	if err != nil {
		return fmt.Errorf("fleetsvc: %s: %w", path, err)
	}
	if complete < len(data) {
		if err := s.log.Truncate(int64(complete)); err != nil {
			return fmt.Errorf("fleetsvc: cutting the journal's torn tail: %w", err)
		}
	}
	s.logLen = int64(complete)
	for _, rec := range logRecs {
		recs[rec.ID] = rec
	}

	ids := make([]string, 0, len(recs))
	// order-independent: the IDs are sorted before any is used.
	for id := range recs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := recs[id]
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
		spec, info, fj, err := s.resolve(rec.Spec)
		if err != nil {
			if err := s.reject(rec, err); err != nil {
				return err
			}
			continue
		}
		j := s.track(id, spec, info, fj)
		switch rec.State {
		case StateDone, StateQueued, StateRunning: // older binaries journaled running
			// A done job trusts the spec's reports if they exist.
			// Otherwise it re-runs: every chunk is checkpointed, so the
			// redo only re-renders. A done job from a store that kept
			// reports per job ID takes that path once.
			if rec.State == StateDone && s.haveReports(j.hash) {
				j.reported()
			} else {
				s.enqueue(j)
			}
		default:
			j.end(rec.State, rec.Error)
		}
	}
	return nil
}

// reject tracks a journaled job whose spec this binary rejects as
// failed, with the rejection as its error: startup goes on, and the job
// stays listed for inspection. Its spec is not indexed, and its failed
// record is journaled only if its last record is not that one already,
// so a restart appends nothing.
func (s *Service) reject(rec jobRecord, cause error) error {
	failed := rec
	failed.State, failed.Error = StateFailed, cause.Error()
	if rec != failed {
		if err := s.writeJournal(&failed); err != nil {
			return err
		}
	}
	s.register(rec.ID, rec.Spec, specInfo{hash: rec.SpecHash}, nil).end(StateFailed, failed.Error)
	return nil
}

// readLegacyJournals reads the per-job journal files older binaries
// wrote, jobs/<id>.json, by job ID. They are read and never written.
func (s *Service) readLegacyJournals() (map[string]jobRecord, error) {
	ents, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("fleetsvc: scanning jobs: %w", err)
	}
	recs := make(map[string]jobRecord)
	for _, e := range ents {
		// Not journals: a temp file an interrupted write left behind,
		// and the per-job reports older binaries wrote here.
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, ".tmp-") || !strings.HasSuffix(name, ".json") || strings.Contains(name, ".report.") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(filepath.Join(s.jobsDir(), name))
		if err != nil {
			return nil, fmt.Errorf("fleetsvc: reading journal %s: %w", id, err)
		}
		var rec jobRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("fleetsvc: journal %s: %w", id, err)
		}
		rec.ID = id // the file name names the job, as it always has
		recs[id] = rec
	}
	return recs, nil
}

func idNumber(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return 0
	}
	return n
}

// resolve validates spec and applies its defaults (fleet.Spec.Resolve),
// and returns its hash and chunk count: from the index when a tracked
// job has the spec, and otherwise from a fleet.Job it builds and
// returns, so the job tracked for the spec can run on it. A warm
// resubmit thus builds no cohort grid.
func (s *Service) resolve(spec fleet.Spec) (fleet.Spec, specInfo, *fleet.Job, error) {
	spec, err := spec.Resolve()
	if err != nil {
		return spec, specInfo{}, nil, err
	}
	s.mu.Lock()
	info, ok := s.specs[spec]
	s.mu.Unlock()
	if ok {
		return spec, info, nil, nil
	}
	fj, err := fleet.NewJob(spec.Exec(s.cfg.Jobs))
	if err != nil {
		return spec, specInfo{}, nil, err
	}
	return spec, specInfo{hash: fj.SpecHash(), chunks: fj.NumChunks()}, fj, nil
}

// track registers a queued job in the in-memory table and indexes its
// spec. fj is the job resolve built, or nil. Callers hold s.mu or are
// single-threaded startup.
func (s *Service) track(id string, spec fleet.Spec, info specInfo, fj *fleet.Job) *job {
	j := s.register(id, spec, info, fj)
	s.specs[spec] = info
	return j
}

// register is track without indexing the spec.
func (s *Service) register(id string, spec fleet.Spec, info specInfo, fj *fleet.Job) *job {
	jctx, jcancel := context.WithCancel(s.ctx)
	j := &job{
		id:       id,
		spec:     spec,
		hash:     info.hash,
		chunks:   info.chunks,
		ctx:      jctx,
		cancel:   jcancel,
		fjob:     fj,
		partials: make([]*fleet.ChunkPartial, info.chunks),
		state:    StateQueued,
		watchers: make(map[int]chan struct{}),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j
}

// untrack removes a job that never ran from the table and cancels its
// context.
func (s *Service) untrack(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i := len(s.order) - 1; i >= 0; i-- {
		if s.order[i] == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	j.cancel()
}

// badSpec marks a Submit error as the spec's fault. The HTTP API
// answers it 400 and any other Submit error 500.
type badSpec struct{ error }

func (e badSpec) Unwrap() error { return e.error }

// Submit validates spec, journals it, and queues it. The returned
// status is the freshly queued job (it may already be running by the
// time the caller reads the snapshot). A job whose journal write fails
// is forgotten: it was never durable, so it must not sit queued.
func (s *Service) Submit(spec fleet.Spec) (JobStatus, error) {
	spec, info, fj, err := s.resolve(spec)
	if err != nil {
		return JobStatus{}, badSpec{err}
	}
	j, err := s.add(spec, info, fj)
	if err != nil {
		return JobStatus{}, err
	}
	if err := s.journal(j); err != nil {
		s.untrack(j)
		return JobStatus{}, err
	}
	s.enqueue(j)
	return s.status(j), nil
}

// add tracks a new queued job under the next ID, unless the service is
// shut down.
func (s *Service) add(spec fleet.Spec, info specInfo, fj *fleet.Job) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return nil, errors.New("fleetsvc: service is shut down")
	}
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	return s.track(id, spec, info, fj), nil
}

func (s *Service) enqueue(j *job) {
	s.wg.Add(1)
	go s.runJob(j)
}

// runJob owns one job's lifecycle. A job whose spec's reports are on
// disk finishes at once, without a run slot: it reads no partial and
// builds no lease table. Any other job waits for a slot, folds every
// chunk the shared store holds, leases the rest to local and remote
// workers with each one checkpointed before it counts, persists the
// report and journals the terminal state. After a crash at any instant
// a rerun repeats at most the chunks that were in flight. On service
// shutdown it returns with the journal still saying queued — the
// resume marker a successor picks up.
func (s *Service) runJob(j *job) {
	defer s.wg.Done()
	defer j.notify()
	if s.haveReports(j.hash) {
		_ = s.end(j, StateDone, "", true) // a failed write ends it failed
		return
	}
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-j.ctx.Done():
		// Service shutdown (leave the journal as-is for resume) or a
		// cancel while queued (Cancel journaled it already).
		return
	}
	fj, ok := j.start()
	if !ok {
		return // canceled while waiting for the slot
	}
	j.notify()
	s.finish(j, s.run(j, fj))
}

// run loads the chunks the store holds for j, leases the rest to this
// process's Jobs workers and to remote ones, each checkpointed before j
// counts it, folds them all and persists the spec's reports. fj is the
// job's fleet.Job, or nil when the index resolved its spec: then run
// builds it here, the one place that needs it. When the job's context
// ends (a cancel, or the service stopping) the lease table closes and
// run returns.
func (s *Service) run(j *job, fj *fleet.Job) error {
	if fj == nil {
		var err error
		if fj, err = fleet.NewJob(j.spec.Exec(s.cfg.Jobs)); err != nil {
			return err
		}
	}
	have, err := s.store.Load(j.ctx, j.hash, j.chunks)
	if err != nil {
		return err
	}
	stop := context.AfterFunc(j.ctx, func() {
		j.mu.Lock()
		j.dropLeases()
		j.mu.Unlock()
	})
	defer stop()
	if err := j.startLeases(s.clock, have); err != nil {
		return err
	}
	if s.cfg.Jobs > 0 {
		s.computeLocal(j, fj)
	}
	partials, err := j.wait()
	if err != nil {
		return err
	}
	res, err := fj.Fold(partials)
	if err != nil {
		return err
	}
	return s.writeReports(j.hash, res)
}

// computeLocal runs j's chunks on Jobs workers through fleet.Job.Compute,
// each worker keeping one Scratch for the job and every worker resuming
// devices from the service's prefix store. A worker leases a chunk from
// the table only when it is free to start it, so a remote worker can
// lease every chunk the local ones are not running. It returns once no
// chunk is left for it: every chunk is done, the run failed (a local
// chunk's error fails it), or the job stopped leasing. Nothing on this
// path polls or sleeps: a free worker waits on the table.
func (s *Service) computeLocal(j *job, fj *fleet.Job) {
	_, err := fj.Compute(j.ctx, s.cfg.Jobs, s.prefixes, j.takeLocal, func(cp *fleet.ChunkPartial) error {
		entry, err := EncodeEntry(j.hash, cp.Chunk, cp)
		if err != nil {
			return err
		}
		return s.accept(j, cp, entry)
	})
	if err != nil {
		j.fail(err)
	}
}

// accept stores entry, the encoded result cp for one of j's chunks, and
// only then counts the chunk, so no chunk counts before it is durable.
// A chunk that has its result already is neither stored again nor
// counted: the first result wins. A failed Put fails the job, as a
// failed checkpoint fails any run. errNotRunning: j is not leasing.
func (s *Service) accept(j *job, cp *fleet.ChunkPartial, entry []byte) error {
	need, err := j.needs(cp.Chunk)
	if err != nil || !need {
		return err
	}
	if err := s.store.put(j.hash, cp.Chunk, entry); err != nil {
		err = fmt.Errorf("checkpointing chunk %d: %w", cp.Chunk, err)
		j.fail(err)
		return err
	}
	return j.complete(cp)
}

// writeReports persists both report formats for hash before the job
// that rendered them is declared done, so a done journal entry always
// has servable reports. They are a pure function of the spec hash, so
// an earlier job of the same spec may have written them already; two
// jobs racing here write identical bytes by rename, as two Puts of one
// chunk do.
func (s *Service) writeReports(hash string, res *fleet.Result) error {
	if s.haveReports(hash) {
		return nil
	}
	var csv, js bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		return err
	}
	if err := res.WriteJSON(&js); err != nil {
		return err
	}
	if err := writeFileAtomic(s.reportsDir(), reportName(hash, false), csv.Bytes(), s.store.seq.Add(1)); err != nil {
		return err
	}
	return writeFileAtomic(s.reportsDir(), reportName(hash, true), js.Bytes(), s.store.seq.Add(1))
}

// finish ends a job done, or failed with err — unless service shutdown
// interrupted the run, which leaves it resumable, or a cancel did,
// which Cancel has ended.
func (s *Service) finish(j *job, err error) {
	switch {
	case err == nil:
		_ = s.end(j, StateDone, "", false) // a failed write ends it failed
	case s.ctx.Err() != nil, j.ctx.Err() != nil:
		return
	default:
		_ = s.end(j, StateFailed, err.Error(), false)
	}
}

// end journals j's terminal state and only then publishes it, so no
// client sees a job done or canceled that a successor daemon would run
// again. An already terminal job is left as it is. reported ends a
// done job with every chunk counted as loaded (job.reported). Ends and
// journal writes are serialized per job: of a cancel racing a finish,
// the state published last is the one journaled last.
//
// When the write fails, the error is returned and the journal still
// says queued. A cancel then publishes nothing and the job runs on. Any
// other end publishes failed with the write error, and a successor
// re-runs the job.
func (s *Service) end(j *job, state, errMsg string, reported bool) error {
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	if j.ended() {
		return nil
	}
	err := s.writeJournal(&jobRecord{ID: j.id, Spec: j.spec, SpecHash: j.hash, State: state, Error: errMsg})
	switch {
	case err == nil && reported:
		j.reported()
	case err == nil:
		j.end(state, errMsg)
	case state == StateFailed:
		j.end(StateFailed, errMsg+"; "+err.Error())
	case state != StateCanceled:
		j.end(StateFailed, err.Error())
	}
	return err
}

// Cancel stops a queued or running job once its canceled record is
// journaled; a failed write is returned and leaves the job as it was.
// Terminal jobs are left as they are (canceling a done job is a no-op,
// not an error).
func (s *Service) Cancel(id string) (JobStatus, error) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("fleetsvc: no job %s", id)
	}
	if err := s.end(j, StateCanceled, "", false); err != nil {
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
func (s *Service) List() []JobStatus { return s.list("") }

// list returns, in submission order, the snapshot of every job in
// state, or of every job when state is "".
func (s *Service) list(state string) []JobStatus {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		if st := s.status(j); state == "" || st.State == state {
			out = append(out, st)
		}
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
	return os.ReadFile(filepath.Join(s.reportsDir(), reportName(j.hash, asJSON)))
}

// Cohorts returns the per-cohort fold of a job's completed chunks,
// merged in chunk-index order (deterministic for a given done-count).
// A queued or running job folds the chunks it has recorded. A done job
// keeps none, so its fold is read under ctx from the store, which holds
// every chunk of its spec unless entries were lost since: one Get per
// chunk, and a corrupt entry is quarantined as by any other read. A
// canceled or failed job has no fold: nil. Cohorts no folded chunk
// touched are omitted.
func (s *Service) Cohorts(ctx context.Context, id string) ([]CohortProgress, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, fmt.Errorf("fleetsvc: no job %s", id)
	}
	j.mu.Lock()
	if j.partials != nil {
		defer j.mu.Unlock()
		return foldCohorts(j.partials)
	}
	state := j.state
	j.mu.Unlock()
	if state != StateDone {
		return nil, nil
	}
	have, err := s.store.Load(ctx, j.hash, j.chunks)
	if err != nil {
		return nil, err
	}
	return foldCohorts(have)
}

// foldCohorts merges the non-nil partials in index order and lists
// every cohort they touched, in grid order.
func foldCohorts(partials []*fleet.ChunkPartial) ([]CohortProgress, error) {
	labels := fleet.CohortLabels()
	accum := make([]fleet.CohortAccum, len(labels))
	for _, cp := range partials {
		if cp == nil {
			continue
		}
		if len(cp.Cohorts) != len(labels) {
			return nil, fmt.Errorf("fleetsvc: chunk %d has %d cohorts, want %d", cp.Chunk, len(cp.Cohorts), len(labels))
		}
		for i := range cp.Cohorts {
			if cp.Cohorts[i].Devices == 0 {
				continue
			}
			if err := accum[i].Merge(&cp.Cohorts[i]); err != nil {
				return nil, err
			}
		}
	}
	var out []CohortProgress
	for i := range accum {
		if accum[i].Devices == 0 {
			continue
		}
		out = append(out, CohortProgress{
			Cohort:   labels[i],
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
		SpecHash: j.hash,
		Chunks:   j.chunks,
		Done:     j.loaded + j.computed,
		Loaded:   j.loaded,
		Computed: j.computed,
		Devices:  j.devices,
		Error:    j.errMsg,
	}
}

// journal appends a job's current record to the journal, serialized
// with the job's ends.
func (s *Service) journal(j *job) error {
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	rec := jobRecord{
		ID:       j.id,
		Spec:     j.spec,
		SpecHash: j.hash,
		State:    j.state,
		Error:    j.errMsg,
	}
	j.mu.Unlock()
	return s.writeJournal(&rec)
}

// writeJournal appends rec to the journal log as one line, in one
// Write. A failed write (a full disk, a file-size limit, an I/O error)
// may have written part of the line; if it did, the log is cut back to
// its length before the write, so no record is ever glued onto a torn
// one. If even that fails, every later append fails too, until a
// restart cuts the torn tail off.
func (s *Service) writeJournal(rec *jobRecord) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return fmt.Errorf("fleetsvc: journaling %s: %w", rec.ID, err)
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.logErr != nil {
		return fmt.Errorf("fleetsvc: journaling %s: %w", rec.ID, s.logErr)
	}
	n, err := s.log.Write(line)
	if err != nil {
		if n > 0 {
			if terr := s.log.Truncate(s.logLen); terr != nil {
				s.logErr = fmt.Errorf("journal log torn by a failed append (%v) and not cut back: %w", err, terr)
			}
		}
		return fmt.Errorf("fleetsvc: journaling %s: %w", rec.ID, err)
	}
	s.logLen += int64(n)
	return nil
}

// journalLog is the journal's file in jobs/. Its name does not end in
// .json, which would make it a legacy per-job journal.
const journalLog = "journal.log"

// encodeRecord renders rec as one journal line: compact JSON, which
// escapes every newline in a string, and a newline.
func encodeRecord(rec *jobRecord) ([]byte, error) {
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// parseJournal splits a journal log into its records, in order, and the
// length of its complete part: everything up to its last newline. The
// bytes after that are the torn tail of a kill inside an append. A
// complete line that is not a record with a job ID is corruption, not a
// torn write: the error names its byte offset.
func parseJournal(data []byte) (recs []jobRecord, complete int, err error) {
	complete = bytes.LastIndexByte(data, '\n') + 1
	for off := 0; off < complete; {
		end := off + bytes.IndexByte(data[off:], '\n')
		var rec jobRecord
		if err := json.Unmarshal(data[off:end], &rec); err != nil {
			return nil, complete, fmt.Errorf("record at byte %d: %w", off, err)
		}
		if rec.ID == "" {
			return nil, complete, fmt.Errorf("record at byte %d has no job ID", off)
		}
		recs = append(recs, rec)
		off = end + 1
	}
	return recs, complete, nil
}
