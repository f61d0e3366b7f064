package fleetsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"capybara/internal/fleet"
)

// The service correctness suite. The claims under test, in order:
//
//  1. Crash/resume byte-identity: a daemon killed mid-run and restarted
//     over the same store finishes the job and serves a report
//     byte-identical to an uninterrupted single-process run.
//  2. Any-prefix resume (property): whatever prefix of chunks was
//     checkpointed before the crash — zero, some, or all — the resumed
//     run loads exactly that prefix, computes exactly the rest, and
//     folds to identical bytes.
//  3. Cross-run memo: a second job with the same spec loads every chunk
//     from the first job's checkpoints and computes nothing.
//  4. Isolation: concurrent jobs with different specs never fold each
//     other's partials.

// runWithStore builds cfg's job and runs it the way the daemon does:
// Job.Run over the chunks store holds, with each computed chunk put to
// store before it counts. It returns how many chunks were loaded and
// how many computed.
func runWithStore(t *testing.T, store *Store, cfg fleet.Config) (res *fleet.Result, loaded, computed int) {
	t.Helper()
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	have, err := store.Load(context.Background(), job.SpecHash(), job.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	for _, cp := range have {
		if cp != nil {
			loaded++
		}
	}
	res, err = job.Run(context.Background(), have, func(cp *fleet.ChunkPartial) error {
		computed++
		return store.Put(job.SpecHash(), cp.Chunk, cp)
	})
	if err != nil {
		t.Fatalf("Job.Run: %v", err)
	}
	return res, loaded, computed
}

// reference is what an uninterrupted run of a config serves, with no
// store in the loop: the bytes every checkpointed, resumed or remote
// path must reproduce.
type reference struct {
	csv, js []byte
	// entries holds each chunk's store entry as a worker sends it, each
	// chunk computed alone on a fresh scratch: a test that folds them
	// checks them against the shared-prefix run behind csv and js.
	entries [][]byte
}

// references holds each config's reference, computed once per test
// binary: it is a pure function of the config's spec. No test may
// modify the bytes it hands out.
var references struct {
	sync.Mutex
	bySpec map[fleet.Spec]*reference
}

// referenceOf returns cfg's reference, running cfg the first time it is
// asked for.
func referenceOf(t *testing.T, cfg fleet.Config) *reference {
	t.Helper()
	references.Lock()
	defer references.Unlock()
	if ref, ok := references.bySpec[specOf(cfg)]; ok {
		return ref
	}
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{entries: make([][]byte, job.NumChunks())}
	for ci := range ref.entries {
		if ref.entries[ci], err = EncodeEntry(job.SpecHash(), ci, runChunk(t, job, ci)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := job.Run(context.Background(), nil, nil)
	if err != nil {
		t.Fatalf("Job.Run: %v", err)
	}
	var c, j bytes.Buffer
	if err := res.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	ref.csv, ref.js = c.Bytes(), j.Bytes()
	if references.bySpec == nil {
		references.bySpec = make(map[fleet.Spec]*reference)
	}
	references.bySpec[specOf(cfg)] = ref
	return ref
}

// baseline returns cfg's canonical CSV report.
func baseline(t *testing.T, cfg fleet.Config) []byte {
	t.Helper()
	return referenceOf(t, cfg).csv
}

// openService opens a service over dir. A cfg whose Jobs is 0 gets one
// local worker per CPU, what a zero Jobs meant before remote workers:
// the service tests that leave it unset compute their jobs in-process.
// remoteService opens a service that computes nothing itself.
func openService(t *testing.T, dir string, cfg ServiceConfig) *Service {
	t.Helper()
	if cfg.Jobs == 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = store
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc
}

// waitStatus blocks until pred holds for the job's status (watch nudges
// plus a slow poll, so a nudge lost to coalescing cannot hang the test).
func waitStatus(t *testing.T, svc *Service, id string, what string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	ch, stop, ok := svc.Watch(id)
	if !ok {
		t.Fatalf("waitStatus: no job %s", id)
	}
	defer stop()
	deadline := time.After(60 * time.Second)
	for {
		st, ok := svc.Status(id)
		if !ok {
			t.Fatalf("waitStatus: job %s vanished", id)
		}
		if pred(st) {
			return st
		}
		if terminal(st.State) {
			t.Fatalf("waitStatus: job %s reached %s (error %q) while waiting for %s", id, st.State, st.Error, what)
		}
		select {
		case <-ch:
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatalf("waitStatus: job %s stuck at %+v waiting for %s", id, st, what)
		}
	}
}

// logRecords reads dir's journal log record by record, failing unless
// every line is a whole record: no torn tail, no corrupt line.
func logRecords(t *testing.T, dir string) []jobRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs", journalLog))
	if err != nil {
		t.Fatal(err)
	}
	return decodeLines(t, data)
}

// decodeLines decodes each newline-terminated line of data as a record.
func decodeLines(t *testing.T, data []byte) []jobRecord {
	t.Helper()
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatalf("journal log ends in a torn line %q", data[bytes.LastIndexByte(data, '\n')+1:])
	}
	var recs []jobRecord
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec jobRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			t.Fatalf("journal line %q is not a record (%v)", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// journalState reads the state of job id's last record in the journal
// log.
func journalState(t *testing.T, dir, id string) string {
	t.Helper()
	state := ""
	for _, rec := range logRecords(t, dir) {
		if rec.ID == id {
			state = rec.State
		}
	}
	if state == "" {
		t.Fatalf("journal holds no record of job %s", id)
	}
	return state
}

func waitDone(t *testing.T, svc *Service, id string) JobStatus {
	t.Helper()
	ch, stop, ok := svc.Watch(id)
	if !ok {
		t.Fatalf("waitDone: no job %s", id)
	}
	defer stop()
	deadline := time.After(60 * time.Second)
	for {
		st, ok := svc.Status(id)
		if !ok {
			t.Fatalf("waitDone: job %s vanished", id)
		}
		if terminal(st.State) {
			return st
		}
		select {
		case <-ch:
		case <-time.After(50 * time.Millisecond):
		case <-deadline:
			t.Fatalf("waitDone: job %s stuck at %+v", id, st)
		}
	}
}

// TestServiceCrashResumeByteIdentity is the headline e2e: submit, let
// at least two chunks checkpoint, kill the service the way a SIGKILL
// would land (Close interrupts mid-chunk and leaves the journal saying
// queued: running is never journaled), restart over the same directory,
// and require the resumed job to finish with a report byte-identical to
// an uninterrupted run — having reloaded at least one checkpoint rather
// than starting over, and counting every device once across loaded and
// computed chunks, the short last chunk included.
func TestServiceCrashResumeByteIdentity(t *testing.T) {
	cfg := fleet.Config{N: 244, Seed: 7, Scale: 0.05, ChunkSize: 8} // 31 chunks, the last holding 4 devices
	want := baseline(t, cfg)

	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{Jobs: 1})
	st, err := svc.Submit(fleet.Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, st.ID, "two checkpoints", func(s JobStatus) bool { return s.Done >= 2 })
	svc.Close() // crash: journal still says queued, partial checkpoints on disk
	if got := journalState(t, dir, st.ID); got != StateQueued {
		t.Fatalf("interrupted job journaled as %q, want %q", got, StateQueued)
	}

	// The successor computes on every CPU: the crash point is the first
	// daemon's, and the resume needs no serial schedule.
	svc2 := openService(t, dir, ServiceConfig{})
	defer svc2.Close()
	fin := waitDone(t, svc2, st.ID)
	if fin.State != StateDone {
		t.Fatalf("resumed job finished %s: %s", fin.State, fin.Error)
	}
	if fin.Loaded < 1 {
		t.Fatalf("resumed job loaded %d chunks, want >= 1 (resume credit)", fin.Loaded)
	}
	if fin.Loaded+fin.Computed != fin.Chunks {
		t.Fatalf("loaded %d + computed %d != %d chunks", fin.Loaded, fin.Computed, fin.Chunks)
	}
	if fin.Devices != cfg.N {
		t.Fatalf("resumed job counted %d devices, want %d", fin.Devices, cfg.N)
	}
	got, err := svc2.Report(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- resumed\n%s--- baseline\n%s", got, want)
	}
}

// TestServiceResumeAcrossManyCrashes kills and restarts the service
// after every couple of checkpoints until the job completes — a crash
// at many distinct points of the same run, each resume folding the
// union of all prior generations' checkpoints.
func TestServiceResumeAcrossManyCrashes(t *testing.T) {
	cfg := fleet.Config{N: 120, Seed: 3, Scale: 0.05, ChunkSize: 8} // 15 chunks
	want := baseline(t, cfg)

	dir := t.TempDir()
	var finalSvc *Service
	var fin JobStatus
	id := ""
	for gen := 0; gen < 20; gen++ {
		svc := openService(t, dir, ServiceConfig{Jobs: 1})
		if id == "" {
			st, err := svc.Submit(fleet.Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize})
			if err != nil {
				t.Fatal(err)
			}
			id = st.ID
		}
		st, ok := svc.Status(id)
		if !ok {
			t.Fatalf("generation %d lost job %s", gen, id)
		}
		if terminal(st.State) {
			finalSvc, fin = svc, st
			break
		}
		// Wait for fresh compute, not just reloaded checkpoints, so every
		// generation is guaranteed to push the frontier before it dies.
		st = waitStatus(t, svc, id, "fresh compute", func(s JobStatus) bool { return terminal(s.State) || s.Computed >= 2 })
		if terminal(st.State) {
			finalSvc, fin = svc, st
			break
		}
		svc.Close() // crash this generation
	}
	if finalSvc == nil {
		t.Fatal("job never completed across 20 generations")
	}
	defer finalSvc.Close()
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	got, err := finalSvc.Report(id, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("multi-crash report differs from uninterrupted run")
	}
}

// TestAnyPrefixResume is the property underlying every crash test: for
// EVERY possible checkpoint prefix k (a crash can land between any two
// chunk completions), a run over a store holding exactly chunks [0, k)
// loads k, computes the remaining n-k, and folds to identical bytes.
func TestAnyPrefixResume(t *testing.T) {
	cfg := fleet.Config{N: 48, Seed: 11, Scale: 0.05, ChunkSize: 8} // 6 chunks
	want := baseline(t, cfg)
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := job.NumChunks()
	hash := job.SpecHash()

	// Every prefix stores the reference run's entries.
	all := entries(t, cfg)

	for k := 0; k <= n; k++ {
		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for ci := 0; ci < k; ci++ {
			if err := store.put(hash, ci, all[ci]); err != nil {
				t.Fatal(err)
			}
		}
		res, loaded, computed := runWithStore(t, store, cfg)
		if loaded != k || computed != n-k {
			t.Fatalf("prefix %d: loaded %d computed %d, want %d and %d", k, loaded, computed, k, n-k)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("prefix %d: report differs from baseline", k)
		}
	}
}

// TestServiceCrossRunMemo: the store doubles as a cross-run memo — a
// second job with the same spec is satisfied entirely from the first
// job's checkpoints, with zero fresh computation.
func TestServiceCrossRunMemo(t *testing.T) {
	spec := fleet.Spec{N: 48, Seed: 5, Scale: 0.05, ChunkSize: 8}
	svc := openService(t, t.TempDir(), ServiceConfig{})
	defer svc.Close()

	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitDone(t, svc, first.ID)
	if st1.State != StateDone {
		t.Fatalf("first job: %s (%s)", st1.State, st1.Error)
	}
	if st1.Computed != st1.Chunks || st1.Loaded != 0 {
		t.Fatalf("first job on an empty store: computed %d loaded %d, want %d and 0", st1.Computed, st1.Loaded, st1.Chunks)
	}

	second, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitDone(t, svc, second.ID)
	if st2.State != StateDone {
		t.Fatalf("second job: %s (%s)", st2.State, st2.Error)
	}
	if st2.SpecHash != st1.SpecHash {
		t.Fatalf("same spec hashed differently: %s vs %s", st2.SpecHash, st1.SpecHash)
	}
	if st2.Computed != 0 || st2.Loaded != st2.Chunks {
		t.Fatalf("memo miss: second job computed %d loaded %d, want 0 and %d", st2.Computed, st2.Loaded, st2.Chunks)
	}
	r1, err := svc.Report(first.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Report(second.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("memo-satisfied report differs from computed report")
	}
}

// storeFiles stats every regular file under dir, by relative path.
func storeFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	files := make(map[string]os.FileInfo)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel] = info
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestServiceWarmFootprint: a job whose spec is already done writes
// only its own two journal records. Its chunks and reports are on disk,
// so it adds no file, and every file but the journal log keeps its
// name, size, mtime and inode; the log grows by exactly the new job's
// queued and done records. It serves the first job's reports. Each
// snapshot follows a Close, which waits for the job's last write, the
// terminal journal record.
func TestServiceWarmFootprint(t *testing.T) {
	spec := fleet.Spec{N: 48, Seed: 5, Scale: 0.05, ChunkSize: 8}
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{})
	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, first.ID); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	svc.Close()
	before := storeFiles(t, dir)
	logPath := filepath.Join(dir, "jobs", journalLog)
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	svc = openService(t, dir, ServiceConfig{})
	second, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, second.ID); st.State != StateDone {
		t.Fatalf("second job: %s (%s)", st.State, st.Error)
	}
	svc.Close()
	after := storeFiles(t, dir)

	logAfter, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(logAfter, logBefore) {
		t.Fatal("second job rewrote the journal log instead of appending to it")
	}
	added := decodeLines(t, logAfter[len(logBefore):])
	if len(added) != 2 || added[0].ID != second.ID || added[0].State != StateQueued ||
		added[1].ID != second.ID || added[1].State != StateDone {
		t.Fatalf("second job appended %+v, want its queued and done records", added)
	}
	logName := filepath.Join("jobs", journalLog)
	delete(before, logName)
	delete(after, logName)
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("second job added %s", name)
		}
	}
	for name, b := range before {
		a, ok := after[name]
		switch {
		case !ok:
			t.Errorf("second job removed %s", name)
		case !os.SameFile(a, b) || a.Size() != b.Size() || !a.ModTime().Equal(b.ModTime()):
			t.Errorf("second job rewrote %s", name)
		}
	}
	for _, asJSON := range []bool{false, true} {
		r1, err := svc.Report(first.ID, asJSON)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := svc.Report(second.ID, asJSON)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1, r2) {
			t.Fatalf("json=%v: warm job's report differs from the first job's", asJSON)
		}
	}
}

// reports returns cfg's canonical CSV and JSON reports.
func reports(t *testing.T, cfg fleet.Config) (csv, js []byte) {
	t.Helper()
	ref := referenceOf(t, cfg)
	return ref.csv, ref.js
}

// checkReports fails unless job id serves exactly csv and js.
func checkReports(t *testing.T, svc *Service, id string, csv, js []byte) {
	t.Helper()
	for _, want := range []struct {
		asJSON bool
		bytes  []byte
	}{{false, csv}, {true, js}} {
		got, err := svc.Report(id, want.asJSON)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.bytes) {
			t.Fatalf("job %s json=%v: report differs from fleet.Run's", id, want.asJSON)
		}
	}
}

// checkReleased fails unless job id holds no simulation state: no
// fleet.Job, no partials, no lease table, and a done context.
func checkReleased(t *testing.T, svc *Service, id string) {
	t.Helper()
	j, ok := svc.lookup(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	j.mu.Lock()
	fj, partials, leases := j.fjob, j.partials, j.leases
	j.mu.Unlock()
	if fj != nil || partials != nil || leases != nil {
		t.Fatalf("terminal job %s still holds its fleet.Job (%v), %d partial slots or its lease table (%v)", id, fj != nil, len(partials), leases != nil)
	}
	if j.ctx.Err() == nil {
		t.Fatalf("terminal job %s's context is not done", id)
	}
}

// cohortStatus answers GET /api/v1/jobs/{id}?cohorts=1 from svc's
// handler, and fails unless the answer is a 200 whose status is
// svc.Status(id).
func cohortStatus(t *testing.T, svc *Service, id string) statusResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/jobs/"+id+"?cohorts=1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("job %s ?cohorts=1: %d %s", id, rec.Code, rec.Body)
	}
	var doc statusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if st, _ := svc.Status(id); doc.JobStatus != st {
		t.Fatalf("job %s ?cohorts=1 status %+v, want %+v", id, doc.JobStatus, st)
	}
	return doc
}

// checkTerminalCohorts fails unless ?cohorts=1 serves each job's status
// with the fold its state allows: every device for the done job, none
// for the canceled and failed ones.
func checkTerminalCohorts(t *testing.T, svc *Service, n int, done, canceled, failed string) {
	t.Helper()
	if got := cohortDevices(cohortStatus(t, svc, done).Cohorts); got != n {
		t.Fatalf("done job's cohorts hold %d devices, want %d", got, n)
	}
	for _, id := range []string{canceled, failed} {
		if doc := cohortStatus(t, svc, id); len(doc.Cohorts) != 0 {
			t.Fatalf("%s job %s serves %d cohorts", doc.State, id, len(doc.Cohorts))
		}
	}
}

// TestServiceTerminalJobReleasesState: a job that ends done, canceled
// or failed keeps only its status. Its fleet.Job and partials are gone
// and its context is done, while its status, journal and reports read
// as they did when it held them. After a restart the same holds for
// every recovered terminal job. ?cohorts=1 serves each one's status: a
// done job's fold comes from the store and covers every device, a
// canceled or failed job has none, and a done job whose store read
// fails is served without one rather than as an error.
func TestServiceTerminalJobReleasesState(t *testing.T) {
	cfg := fleet.Config{N: 48, Seed: 5, Scale: 0.05, ChunkSize: 8}
	wantCSV, wantJSON := reports(t, cfg)
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{Jobs: 1})

	done, err := svc.Submit(fleet.Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, svc, done.ID)
	if st.State != StateDone || st.Computed != st.Chunks || st.Loaded != 0 || st.Devices != cfg.N {
		t.Fatalf("done job status %+v", st)
	}
	checkReleased(t, svc, done.ID)
	if again, _ := svc.Status(done.ID); again != st {
		t.Fatalf("released job's status moved: %+v, then %+v", st, again)
	}
	checkReports(t, svc, done.ID, wantCSV, wantJSON)

	long, err := svc.Submit(fleet.Spec{N: 240, Seed: 9, Scale: 0.05, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, long.ID, "first checkpoint", func(s JobStatus) bool { return s.Done >= 1 })
	if st, err := svc.Cancel(long.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel: %+v, %v", st, err)
	}
	checkReleased(t, svc, long.ID)

	// A regular file where the spec's partials directory belongs fails
	// the job's Store.Load.
	broken := fleet.Spec{N: 16, Seed: 6, Scale: 0.05, ChunkSize: 8}
	fj, err := fleet.NewJob(broken.Exec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "partials", fj.SpecHash()), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	failed, err := svc.Submit(broken)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, failed.ID); st.State != StateFailed || st.Error == "" {
		t.Fatalf("job over a broken partials path: %+v", st)
	}
	checkReleased(t, svc, failed.ID)
	if st, _ := svc.Status(failed.ID); st.State != StateFailed || st.Error == "" {
		t.Fatalf("failed job status %+v", st)
	}
	checkTerminalCohorts(t, svc, cfg.N, done.ID, long.ID, failed.ID)
	svc.Close() // waits for each job's terminal journal write
	for id, want := range map[string]string{done.ID: StateDone, long.ID: StateCanceled, failed.ID: StateFailed} {
		if got := journalState(t, dir, id); got != want {
			t.Fatalf("job %s journaled %q, want %q", id, got, want)
		}
	}

	svc = openService(t, dir, ServiceConfig{Jobs: 1})
	defer svc.Close()
	for _, id := range []string{done.ID, long.ID, failed.ID} {
		checkReleased(t, svc, id)
	}
	if again, _ := svc.Status(done.ID); again.State != StateDone || again.Done != st.Chunks || again.Devices != cfg.N {
		t.Fatalf("recovered done job status %+v", again)
	}
	checkReports(t, svc, done.ID, wantCSV, wantJSON)
	checkTerminalCohorts(t, svc, cfg.N, done.ID, long.ID, failed.ID)

	partials := filepath.Join(dir, "partials", st.SpecHash)
	if err := os.RemoveAll(partials); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partials, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cohorts(context.Background(), done.ID); err == nil {
		t.Fatal("done job's fold over a broken partials path did not fail")
	}
	if doc := cohortStatus(t, svc, done.ID); doc.State != StateDone || len(doc.Cohorts) != 0 {
		t.Fatalf("done job over a broken partials path: %s with %d cohorts", doc.State, len(doc.Cohorts))
	}
}

// TestServiceWarmJobReadsNoPartials: once a spec's reports are on disk,
// a job of that spec reads no partial. With the first job's partials
// deleted, a second job still ends done with every chunk counted as
// loaded and none computed, serves fleet.Run's bytes, writes no partial
// and quarantines nothing.
func TestServiceWarmJobReadsNoPartials(t *testing.T) {
	cfg := fleet.Config{N: 48, Seed: 5, Scale: 0.05, ChunkSize: 8}
	spec := fleet.Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize}
	wantCSV, wantJSON := reports(t, cfg)
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{})
	defer svc.Close()

	first, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, first.ID); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	partials := filepath.Join(dir, "partials", first.SpecHash)
	if err := os.RemoveAll(partials); err != nil {
		t.Fatal(err)
	}

	second, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, svc, second.ID)
	if st.State != StateDone || st.Loaded != st.Chunks || st.Computed != 0 || st.Devices != cfg.N {
		t.Fatalf("warm job status %+v, want done with all %d chunks loaded and none computed", st, st.Chunks)
	}
	checkReports(t, svc, second.ID, wantCSV, wantJSON)
	if _, err := os.Stat(partials); !os.IsNotExist(err) {
		t.Fatalf("warm job wrote partials (stat: %v)", err)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "quarantine")); err != nil || len(ents) != 0 {
		t.Fatalf("quarantine holds %d files (%v)", len(ents), err)
	}
}

// TestServiceRecoverSkipsTempFiles: a kill -9 inside an older binary's
// journal write left a temp file beside its per-job journals. Torn or
// complete, it is not a job: the successor starts and lists only the
// real one.
func TestServiceRecoverSkipsTempFiles(t *testing.T) {
	for _, tc := range []struct {
		name string
		torn bool
	}{{"torn", true}, {"complete", false}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			svc := openService(t, dir, ServiceConfig{})
			st, err := svc.Submit(fleet.Spec{N: 16, Seed: 5, Scale: 0.05, ChunkSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, svc, st.ID)
			svc.Close()

			journal, err := json.MarshalIndent(jobRecord{ID: st.ID, Spec: st.Spec, SpecHash: st.SpecHash, State: StateDone}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			journal = append(journal, '\n')
			if tc.torn {
				journal = journal[:len(journal)/2]
			}
			tmp := filepath.Join(dir, "jobs", ".tmp-4242-7-"+st.ID+".json")
			if err := os.WriteFile(tmp, journal, 0o644); err != nil {
				t.Fatal(err)
			}

			svc = openService(t, dir, ServiceConfig{})
			defer svc.Close()
			if list := svc.List(); len(list) != 1 || list[0].ID != st.ID || list[0].State != StateDone {
				t.Fatalf("restarted daemon lists %+v, want only %s done", list, st.ID)
			}
		})
	}
}

// TestServiceConcurrentJobIsolation runs two different-spec jobs at
// once through one shared store and requires each report to match its
// own single-job baseline — concurrent jobs must never fold each
// other's partials, and the content-addressed store must keep their
// checkpoints apart.
func TestServiceConcurrentJobIsolation(t *testing.T) {
	cfgA := fleet.Config{N: 64, Seed: 21, Scale: 0.05, ChunkSize: 8}
	cfgB := fleet.Config{N: 64, Seed: 22, Scale: 0.05, ChunkSize: 8}
	wantA := baseline(t, cfgA)
	wantB := baseline(t, cfgB)
	if bytes.Equal(wantA, wantB) {
		t.Fatal("test needs distinguishable baselines; seeds 21/22 collided")
	}

	svc := openService(t, t.TempDir(), ServiceConfig{MaxConcurrent: 2})
	defer svc.Close()
	stA, err := svc.Submit(fleet.Spec{N: cfgA.N, Seed: cfgA.Seed, Scale: cfgA.Scale, ChunkSize: cfgA.ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := svc.Submit(fleet.Spec{N: cfgB.N, Seed: cfgB.Seed, Scale: cfgB.Scale, ChunkSize: cfgB.ChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if stA.SpecHash == stB.SpecHash {
		t.Fatal("different seeds produced the same spec hash")
	}
	finA := waitDone(t, svc, stA.ID)
	finB := waitDone(t, svc, stB.ID)
	if finA.State != StateDone || finB.State != StateDone {
		t.Fatalf("jobs finished %s/%s (%s %s)", finA.State, finB.State, finA.Error, finB.Error)
	}
	gotA, err := svc.Report(stA.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := svc.Report(stB.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotA, wantA) {
		t.Fatal("job A's report drifted under concurrency")
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatal("job B's report drifted under concurrency")
	}
}

// TestServicePrefixesAcrossSeeds: one daemon runs two specs of
// different seeds, scales and N in turn. The second job's devices
// resume from the Steady and Continuous prefixes the first job left in
// the daemon's prefix store, and its PWM and blackout cohorts, whose
// traces the seed draws, must not: the daemon serves fleet.Run's bytes
// for both.
func TestServicePrefixesAcrossSeeds(t *testing.T) {
	svc := openService(t, t.TempDir(), ServiceConfig{Jobs: 2})
	defer svc.Close()
	for _, cfg := range []fleet.Config{
		{N: 192, Seed: 41, Scale: 0.02, ChunkSize: 32},
		{N: 144, Seed: 42, Scale: 0.01, ChunkSize: 16},
	} {
		wantCSV, wantJSON := reports(t, cfg)
		st := submit(t, svc, cfg)
		if fin := waitDone(t, svc, st.ID); fin.State != StateDone || fin.Computed != fin.Chunks {
			t.Fatalf("seed %d: job finished %s (%s), %d of %d chunks computed", cfg.Seed, fin.State, fin.Error, fin.Computed, fin.Chunks)
		}
		checkReports(t, svc, st.ID, wantCSV, wantJSON)
	}
}

// TestServiceCancel: canceling a running job reaches the canceled
// state, stays there across a restart, and never serves a report.
func TestServiceCancel(t *testing.T) {
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{Jobs: 1})
	st, err := svc.Submit(fleet.Spec{N: 240, Seed: 9, Scale: 0.05, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, st.ID, "first checkpoint", func(s JobStatus) bool { return s.Done >= 1 })
	got, err := svc.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("cancel left job %s", got.State)
	}
	if _, err := svc.Report(st.ID, false); err == nil {
		t.Fatal("canceled job served a report")
	}
	svc.Close()

	// A successor must not resurrect a canceled job.
	svc2 := openService(t, dir, ServiceConfig{Jobs: 1})
	defer svc2.Close()
	st2, ok := svc2.Status(st.ID)
	if !ok {
		t.Fatalf("canceled job %s forgotten after restart", st.ID)
	}
	if st2.State != StateCanceled {
		t.Fatalf("canceled job resurrected as %s", st2.State)
	}
}

// TestServiceSubmitRejectsBadSpec: validation errors surface at submit
// time and never enter the queue or the journal.
func TestServiceSubmitRejectsBadSpec(t *testing.T) {
	svc := openService(t, t.TempDir(), ServiceConfig{})
	defer svc.Close()
	if _, err := svc.Submit(fleet.Spec{N: 0}); err == nil {
		t.Fatal("submit accepted N=0")
	}
	if _, err := svc.Submit(fleet.Spec{N: 8, Scale: 2.0}); err == nil {
		t.Fatal("submit accepted scale=2.0")
	}
	if got := len(svc.List()); got != 0 {
		t.Fatalf("rejected submits left %d jobs in the queue", got)
	}
}

// TestServiceResubmitUsesSpecIndex: a spec submitted with its defaults
// omitted and then written out resolves to one spec and one hash, and
// the resubmit takes them from the index instead of building a
// fleet.Job. With the spec's reports deleted, a resubmit builds its job
// when it runs and serves fleet.Run's bytes again. After a restart a
// resubmit of the journaled spec ends done with the same hash and
// bytes.
func TestServiceResubmitUsesSpecIndex(t *testing.T) {
	cfg := fleet.Config{N: 40, Seed: 6, Scale: 0.05, ChunkSize: 64}
	wantCSV, wantJSON := reports(t, cfg)
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{Jobs: 1})
	first, err := svc.Submit(fleet.Spec{N: 40, Seed: 6, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, first.ID); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	written := fleet.Spec{N: 40, Seed: 6, Scale: 0.05, ChunkSize: 64}
	if _, _, fj, err := svc.resolve(written); err != nil || fj != nil {
		t.Fatalf("resolving the written-out spec built a fleet.Job (%v) or failed: %v", fj != nil, err)
	}
	second, err := svc.Submit(written)
	if err != nil {
		t.Fatal(err)
	}
	if second.Spec != first.Spec || second.SpecHash != first.SpecHash || second.Spec != written {
		t.Fatalf("specs %+v (%s) and %+v (%s), want both %+v with one hash",
			first.Spec, first.SpecHash, second.Spec, second.SpecHash, written)
	}
	if st := waitDone(t, svc, second.ID); st.State != StateDone || st.Computed != 0 {
		t.Fatalf("warm resubmit: %+v", st)
	}
	checkReports(t, svc, second.ID, wantCSV, wantJSON)

	for _, asJSON := range []bool{false, true} {
		if err := os.Remove(filepath.Join(dir, "reports", reportName(first.SpecHash, asJSON))); err != nil {
			t.Fatal(err)
		}
	}
	third, err := svc.Submit(written)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, third.ID); st.State != StateDone || st.Loaded != st.Chunks {
		t.Fatalf("resubmit without reports: %+v, want done from the stored chunks", st)
	}
	checkReports(t, svc, third.ID, wantCSV, wantJSON)
	svc.Close()

	svc2 := openService(t, dir, ServiceConfig{Jobs: 1})
	defer svc2.Close()
	fourth, err := svc2.Submit(fleet.Spec{N: 40, Seed: 6, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc2, fourth.ID); st.State != StateDone || st.SpecHash != first.SpecHash {
		t.Fatalf("resubmit after restart: %+v, want done with hash %s", st, first.SpecHash)
	}
	checkReports(t, svc2, fourth.ID, wantCSV, wantJSON)
}

// TestServiceLocalPutFailureFailsJob: a chunk the service's own
// workers compute but cannot checkpoint fails its job, as a failed
// checkpoint fails any run, and the failure is journaled. A dangling
// symlink where the spec's partials go lets the job load an empty store
// and fails every Put. The spec has one chunk, so the job's second
// worker waits on the lease table while the first one fails.
func TestServiceLocalPutFailureFailsJob(t *testing.T) {
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{Jobs: 2})
	spec := fleet.Spec{N: 8, Seed: 5, Scale: 0.05, ChunkSize: 8}
	fj, err := fleet.NewJob(spec.Exec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Join(dir, "nowhere"), filepath.Join(dir, "partials", fj.SpecHash())); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, svc, st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "checkpointing chunk 0") || fin.Computed != 0 {
		t.Fatalf("job finished %s (%q) with %d chunks computed", fin.State, fin.Error, fin.Computed)
	}
	svc.Close()
	if got := journalState(t, dir, st.ID); got != StateFailed {
		t.Fatalf("job journaled %s", got)
	}
}

// breakJournal swaps svc's journal log handle for a read-only handle of
// the same file, so every append fails with a real write error while
// every other file operation works. (The service keeps the log open,
// so replacing jobs/ no longer breaks it.) restore puts the writable
// handle back.
func breakJournal(t *testing.T, svc *Service) (restore func()) {
	t.Helper()
	ro, err := os.Open(filepath.Join(svc.store.Dir(), "jobs", journalLog))
	if err != nil {
		t.Fatal(err)
	}
	svc.logMu.Lock()
	rw := svc.log
	svc.log = ro
	svc.logMu.Unlock()
	return func() {
		svc.logMu.Lock()
		svc.log = rw
		svc.logMu.Unlock()
		ro.Close()
	}
}

// TestServiceTerminalStateDurableFirst: with every journal append
// failing, no terminal record can be written. A cancel of a queued job
// must then fail and leave it uncanceled, and a job that runs to
// completion must not claim done: neither may show a terminal state a
// successor would not find. The run slot is held by the test, so both
// jobs are queued when the journal breaks.
func TestServiceTerminalStateDurableFirst(t *testing.T) {
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{Jobs: 1, MaxConcurrent: 1})
	defer svc.Close()
	svc.sem <- struct{}{} // hold the only run slot
	ran, err := svc.Submit(fleet.Spec{N: 16, Seed: 7, Scale: 0.02, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := svc.Submit(fleet.Spec{N: 16, Seed: 8, Scale: 0.02, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer breakJournal(t, svc)() // restored before the deferred Close
	if _, err := svc.Cancel(canceled.ID); err == nil {
		t.Fatal("cancel succeeded with an unwritable journal")
	}
	if st, _ := svc.Status(canceled.ID); st.State != StateQueued {
		t.Fatalf("job whose cancel failed is %s, want queued", st.State)
	}
	<-svc.sem // let the jobs run
	for _, id := range []string{ran.ID, canceled.ID} {
		st := waitDone(t, svc, id)
		if st.State != StateFailed || !strings.Contains(st.Error, "journaling") {
			t.Fatalf("job %s ended %s (%q), want failed on the journal write", id, st.State, st.Error)
		}
	}
}
