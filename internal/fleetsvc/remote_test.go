package fleetsvc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capybara/internal/fleet"
)

// The remote-worker suite: jobs of a daemon that computes nothing
// itself (Jobs 0), leased to Work loops and to raw HTTP clients over
// loopback. Every chunk goes through the lease and result endpoints.

// remoteConfig decomposes into 12 chunks, so leases spread across
// workers and a worker that stops leaves real work behind.
var remoteConfig = fleet.Config{N: 96, Seed: 1, Scale: 0.02, ChunkSize: 8}

func specOf(cfg fleet.Config) fleet.Spec {
	return fleet.Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize}
}

// remoteService opens a service over dir that computes no chunk itself
// and serves its API on a loopback test server. A non-nil clk replaces
// the wall clock; dir must then hold no job to recover, so that no job
// reads the clock while it is set.
func remoteService(t *testing.T, dir string, clk clock) (*Service, *httptest.Server) {
	t.Helper()
	svc := newRemoteService(t, dir)
	if clk != nil {
		svc.clock = clk
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func newRemoteService(t *testing.T, dir string) *Service {
	t.Helper()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(ServiceConfig{Store: store, Jobs: 0})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// startWork runs Work against url with jobs slots until the returned
// stop is called; stop returns Work's error, however often it is called.
func startWork(url string, jobs int) (stop func() error) {
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Work(ctx, url, jobs) }()
	return sync.OnceValue(func() error {
		cancel()
		return <-errc
	})
}

func submit(t *testing.T, svc *Service, cfg fleet.Config) JobStatus {
	t.Helper()
	st, err := svc.Submit(specOf(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// call issues one request to srv and returns its status and body.
func call(t *testing.T, srv *httptest.Server, method, path string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func leaseBody(hash string) []byte {
	body, _ := json.Marshal(leaseRequest{SpecHash: hash})
	return body
}

// leaseNext waits until job id leases chunks, then asks it for one
// lease with hash and returns the chunk granted. A job with no chunk
// eligible fails the test.
func leaseNext(t *testing.T, svc *Service, srv *httptest.Server, id, hash string) int {
	t.Helper()
	j, ok := svc.lookup(id)
	if !ok {
		t.Fatalf("no job %s", id)
	}
	waitStatus(t, svc, id, "its lease table", func(JobStatus) bool {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.leases != nil
	})
	ci, ok := tryLease(t, srv, id, hash)
	if !ok {
		t.Fatalf("job %s has no chunk to lease", id)
	}
	return ci
}

// tryLease asks job id for one lease with hash and returns the chunk
// granted; ok is false when no chunk is eligible now.
func tryLease(t *testing.T, srv *httptest.Server, id, hash string) (ci int, ok bool) {
	t.Helper()
	code, body := call(t, srv, "POST", "/api/v1/jobs/"+id+"/lease", leaseBody(hash))
	switch code {
	case http.StatusOK:
		var lr leaseResponse
		if err := json.Unmarshal([]byte(body), &lr); err != nil {
			t.Fatal(err)
		}
		return lr.Chunk, true
	case http.StatusNoContent:
		return 0, false
	}
	t.Fatalf("lease: %d %s", code, body)
	return 0, false
}

// entries returns every chunk of cfg encoded as the store entry a
// worker sends. The entries are shared: copy one before changing it.
func entries(t *testing.T, cfg fleet.Config) [][]byte {
	t.Helper()
	return slices.Clone(referenceOf(t, cfg).entries)
}

// bentEntry computes chunk ci of cfg and encodes it as a well-formed
// store entry after bend has changed the partial.
func bentEntry(t *testing.T, cfg fleet.Config, ci int, bend func(cp *fleet.ChunkPartial)) []byte {
	t.Helper()
	fj, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := runChunk(t, fj, ci)
	bend(cp)
	entry, err := EncodeEntry(fj.SpecHash(), ci, cp)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// oneCohort cuts a partial down to a one-cohort grid.
func oneCohort(cp *fleet.ChunkPartial) { cp.Cohorts = cp.Cohorts[:1] }

// extraBins gives a partial's first cohort with devices a histogram of
// more bins than the fleet's latency edges make.
func extraBins(cp *fleet.ChunkPartial) {
	for i := range cp.Cohorts {
		if c := &cp.Cohorts[i]; c.Devices > 0 {
			c.LatencyHist.Counts = make([]int, len(c.LatencyHist.Edges)+2)
			return
		}
	}
}

func chunkPath(id string, ci int) string {
	return "/api/v1/jobs/" + id + "/chunks/" + strconv.Itoa(ci)
}

// codeRecorder records the status a handler answers with.
type codeRecorder struct {
	http.ResponseWriter
	code int
}

func (c *codeRecorder) WriteHeader(code int) {
	c.code = code
	c.ResponseWriter.WriteHeader(code)
}

// TestRemoteByteIdentical: a daemon that computes nothing itself and
// two remote workers of different parallelism serve fleet.Run's bytes,
// with every chunk computed remotely and counted once.
func TestRemoteByteIdentical(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	svc, srv := remoteService(t, t.TempDir(), nil)
	stop1, stop2 := startWork(srv.URL, 2), startWork(srv.URL, 1)
	st := submit(t, svc, remoteConfig)
	fin := waitDone(t, svc, st.ID)
	for i, stop := range []func() error{stop1, stop2} {
		if err := stop(); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	if fin.Computed != fin.Chunks || fin.Loaded != 0 || fin.Devices != remoteConfig.N {
		t.Fatalf("job computed %d and loaded %d of %d chunks, %d devices", fin.Computed, fin.Loaded, fin.Chunks, fin.Devices)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// countingServer serves svc's API to one worker and counts in grants
// the leases it grants. A non-nil put sees each PUT first; it answers
// and returns false to keep that result from the daemon.
func countingServer(t *testing.T, svc *Service, grants *atomic.Int32, put func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "PUT" && put != nil && !put(w, r) {
			return
		}
		rec := &codeRecorder{ResponseWriter: w}
		svc.Handler().ServeHTTP(rec, r)
		if strings.HasSuffix(r.URL.Path, "/lease") && rec.code == http.StatusOK {
			grants.Add(1)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// killedAtSecondResult is the PUT filter of a worker that is killed as
// it sends its second result: kill stops the worker, and that result
// never reaches the daemon, leaving its chunk's lease to expire. first
// is closed as the first result goes through.
func killedAtSecondResult(kill context.CancelFunc, first chan<- struct{}) func(http.ResponseWriter, *http.Request) bool {
	var puts atomic.Int32
	return func(w http.ResponseWriter, r *http.Request) bool {
		if puts.Add(1) == 1 {
			close(first)
			return true
		}
		kill()
		w.WriteHeader(http.StatusServiceUnavailable)
		return false
	}
}

// TestRemoteWorkerKilledMidRun: one of two workers is killed as it
// sends its second result, still holding that chunk's lease. Once it
// is gone the clock passes the lease timeout and the backoff: its
// leases expire, and so do those the surviving worker holds at that
// instant, whose results still count. The survivor leases the killed
// worker's chunk again, and the job finishes with fleet.Run's bytes.
func TestRemoteWorkerKilledMidRun(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	clk := newManualClock()
	svc, _ := remoteService(t, t.TempDir(), clk)
	var grants atomic.Int32
	ctxA, killA := context.WithCancel(context.Background())
	defer killA()
	first := make(chan struct{})
	srvA := countingServer(t, svc, &grants, killedAtSecondResult(killA, first))
	srvB := countingServer(t, svc, &grants, nil)

	st := submit(t, svc, remoteConfig)
	errA := make(chan error, 1)
	go func() { errA <- Work(ctxA, srvA.URL, 2) }()
	// B joins once A has a result in, so A is sure to lease another
	// chunk while B runs: at most B's two leases are out besides A's.
	select {
	case <-first:
	case <-time.After(30 * time.Second):
		t.Fatal("worker A sent no result")
	}
	stopB := startWork(srvB.URL, 2)
	defer stopB()
	select {
	case err := <-errA:
		if err != nil {
			t.Fatalf("killed worker: %v", err)
		}
	case <-time.After(30 * time.Second):
		killA()
		t.Fatal("worker A never sent a second result")
	}
	// Closing A's server waits out the requests A sent before it died,
	// so every lease A was granted is armed before the clock moves.
	srvA.Close()
	clk.Advance(leaseTimeout + leaseBackoff)
	fin := waitDone(t, svc, st.ID)
	if err := stopB(); err != nil {
		t.Fatalf("surviving worker: %v", err)
	}
	if fin.State != StateDone || fin.Computed != fin.Chunks {
		t.Fatalf("job finished %s (%s), %d of %d chunks computed", fin.State, fin.Error, fin.Computed, fin.Chunks)
	}
	if got := int(grants.Load()); got <= fin.Chunks {
		t.Fatalf("%d lease grants for %d chunks: the killed worker's lease was never granted again", got, fin.Chunks)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// TestRemoteSoleWorkerReplaced: the job's sole worker is killed
// mid-run, holding a lease whose result never arrives. Once it is gone
// the clock passes the lease timeout and the backoff, and a
// replacement worker started afterwards leases the chunk again and
// finishes with fleet.Run's bytes.
func TestRemoteSoleWorkerReplaced(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	clk := newManualClock()
	svc, _ := remoteService(t, t.TempDir(), clk)
	var grants atomic.Int32
	ctxA, killA := context.WithCancel(context.Background())
	defer killA()
	srvA := countingServer(t, svc, &grants, killedAtSecondResult(killA, make(chan struct{})))
	srvB := countingServer(t, svc, &grants, nil)

	st := submit(t, svc, remoteConfig)
	if err := Work(ctxA, srvA.URL, 2); err != nil {
		t.Fatalf("killed worker: %v", err)
	}
	if mid, _ := svc.Status(st.ID); mid.Computed >= mid.Chunks || terminal(mid.State) {
		t.Fatalf("worker A was killed after the job ended: %+v", mid)
	}
	// Closing A's server waits out the requests A sent before it died,
	// so every lease A was granted is armed before the clock moves.
	srvA.Close()
	clk.Advance(leaseTimeout + leaseBackoff)
	stopB := startWork(srvB.URL, 2)
	fin := waitDone(t, svc, st.ID)
	if err := stopB(); err != nil {
		t.Fatalf("replacement worker: %v", err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	if fin.Computed != fin.Chunks {
		t.Fatalf("job computed %d of %d chunks", fin.Computed, fin.Chunks)
	}
	if got := int(grants.Load()); got <= fin.Chunks {
		t.Fatalf("%d lease grants for %d chunks: the killed worker's lease was never granted again", got, fin.Chunks)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// TestRemoteSpecHashMismatch: a lease request carrying another spec
// hash gets 409 naming both hashes and is granted nothing, and a result
// entry for another hash gets 400 and nothing is stored. The job then
// finishes with fleet.Run's bytes.
func TestRemoteSpecHashMismatch(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	svc, srv := remoteService(t, t.TempDir(), nil)
	st := submit(t, svc, remoteConfig)

	if ci := leaseNext(t, svc, srv, st.ID, st.SpecHash); ci != 0 {
		t.Fatalf("first lease granted chunk %d, want 0", ci)
	}
	const bad = "deadbeef"
	code, body := call(t, srv, "POST", "/api/v1/jobs/"+st.ID+"/lease", leaseBody(bad))
	if code != http.StatusConflict || !strings.Contains(body, "spec hash mismatch") ||
		!strings.Contains(body, st.SpecHash) || !strings.Contains(body, bad) {
		t.Fatalf("mismatched lease: %d %s", code, body)
	}
	if ci := leaseNext(t, svc, srv, st.ID, st.SpecHash); ci != 1 {
		t.Fatalf("lease after the refused one granted chunk %d, want 1: the refused request took a lease", ci)
	}

	// An entry for chunk 1 of another spec.
	other := remoteConfig
	other.Seed++
	otherJob, err := fleet.NewJob(other)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := EncodeEntry(otherJob.SpecHash(), 1, runChunk(t, otherJob, 1))
	if err != nil {
		t.Fatal(err)
	}
	if code, body := call(t, srv, "PUT", chunkPath(st.ID, 1), entry); code != http.StatusBadRequest {
		t.Fatalf("entry for another spec: %d %s", code, body)
	}
	for _, hash := range []string{st.SpecHash, otherJob.SpecHash()} {
		if _, err := os.Stat(filepath.Join(svc.store.Dir(), "partials", hash)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("a refused entry left partials/%s (%v)", hash, err)
		}
	}

	// The two chunks the test holds are answered by the test.
	all := entries(t, remoteConfig)
	for _, ci := range []int{0, 1} {
		if code, body := call(t, srv, "PUT", chunkPath(st.ID, ci), all[ci]); code != http.StatusNoContent {
			t.Fatalf("chunk %d: %d %s", ci, code, body)
		}
	}
	stop := startWork(srv.URL, 2)
	fin := waitDone(t, svc, st.ID)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// TestRemoteWorkerRejectsBadDaemon: a worker whose build derives
// another spec hash for a job the daemon lists exits with the mismatch
// error, naming the daemon's hash, before it asks for any lease.
func TestRemoteWorkerRejectsBadDaemon(t *testing.T) {
	svc, _ := remoteService(t, t.TempDir(), nil)
	st := submit(t, svc, remoteConfig)
	var leased atomic.Bool
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/v1/jobs" {
			leased.Store(true)
			http.NotFound(w, r)
			return
		}
		lie := st
		lie.State, lie.SpecHash = StateRunning, "not-the-real-hash"
		writeJSON(w, http.StatusOK, map[string]any{"jobs": []JobStatus{lie}})
	}))
	defer liar.Close()
	err := Work(context.Background(), liar.URL, 1)
	if err == nil || !strings.Contains(err.Error(), "spec hash mismatch") || !strings.Contains(err.Error(), "not-the-real-hash") {
		t.Fatalf("worker served a daemon whose hash it cannot reproduce: %v", err)
	}
	if leased.Load() {
		t.Fatal("the mismatched worker asked for a lease")
	}
}

// TestRemoteRefusedResultReleased: a result that does not validate
// gets 400 and sends its chunk back to be leased again, lowest first,
// once its backoff has passed; a valid result for it is then counted
// once, a duplicate changes nothing, and the job serves fleet.Run's
// bytes.
func TestRemoteRefusedResultReleased(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	clk := newManualClock()
	svc, srv := remoteService(t, t.TempDir(), clk)
	st := submit(t, svc, remoteConfig)
	all := entries(t, remoteConfig)

	if ci := leaseNext(t, svc, srv, st.ID, st.SpecHash); ci != 0 {
		t.Fatalf("first lease granted chunk %d, want 0", ci)
	}
	corrupt := append([]byte(nil), all[0]...)
	corrupt[len(corrupt)-1] ^= 0xff
	if code, body := call(t, srv, "PUT", chunkPath(st.ID, 0), corrupt); code != http.StatusBadRequest || !strings.Contains(body, "checksum") {
		t.Fatalf("corrupt result: %d %s", code, body)
	}
	clk.Advance(leaseBackoff)
	if ci := leaseNext(t, svc, srv, st.ID, st.SpecHash); ci != 0 {
		t.Fatalf("lease after the refused result's backoff granted chunk %d, want 0 again", ci)
	}
	for i := 0; i < 2; i++ { // the second is a duplicate
		if code, body := call(t, srv, "PUT", chunkPath(st.ID, 0), all[0]); code != http.StatusNoContent {
			t.Fatalf("result %d for chunk 0: %d %s", i, code, body)
		}
	}
	if mid, _ := svc.Status(st.ID); mid.Computed != 1 {
		t.Fatalf("two results for one chunk counted %d chunks", mid.Computed)
	}
	stop := startWork(srv.URL, 2)
	fin := waitDone(t, svc, st.ID)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Computed != fin.Chunks {
		t.Fatalf("job finished %s (%s), %d of %d chunks computed", fin.State, fin.Error, fin.Computed, fin.Chunks)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// TestRemoteLeaseTimeoutReleased: the chunks of a lease holder that
// goes silent are leased again, lowest first, once their leases have
// timed out and the first backoff has passed, and not a nanosecond
// before. Results are accepted whether or not their lease is current,
// so answering every chunk without a lease finishes the job with
// fleet.Run's bytes.
func TestRemoteLeaseTimeoutReleased(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	clk := newManualClock()
	svc, srv := remoteService(t, t.TempDir(), clk)
	st := submit(t, svc, remoteConfig)

	// Every chunk is leased at one instant, and none is answered.
	for want := 0; want < st.Chunks; want++ {
		if ci := leaseNext(t, svc, srv, st.ID, st.SpecHash); ci != want {
			t.Fatalf("lease %d granted chunk %d", want, ci)
		}
	}
	for _, step := range []struct {
		d    time.Duration
		when string
	}{
		{leaseTimeout - time.Nanosecond, "a nanosecond before the leases time out"},
		{time.Nanosecond, "as the leases time out"},
		{leaseBackoff - time.Nanosecond, "a nanosecond before the backoff ends"},
	} {
		clk.Advance(step.d)
		if ci, ok := tryLease(t, srv, st.ID, st.SpecHash); ok {
			t.Fatalf("chunk %d was leased again %s", ci, step.when)
		}
	}
	clk.Advance(time.Nanosecond)
	if ci, ok := tryLease(t, srv, st.ID, st.SpecHash); !ok || ci != 0 {
		t.Fatalf("lease at the timeout plus the backoff = (%d, %v), want chunk 0", ci, ok)
	}
	for ci, entry := range entries(t, remoteConfig) {
		if code, body := call(t, srv, "PUT", chunkPath(st.ID, ci), entry); code != http.StatusNoContent {
			t.Fatalf("chunk %d: %d %s", ci, code, body)
		}
	}
	fin := waitDone(t, svc, st.ID)
	if fin.State != StateDone || fin.Computed != fin.Chunks {
		t.Fatalf("job finished %s (%s), %d of %d chunks computed", fin.State, fin.Error, fin.Computed, fin.Chunks)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// exhaustChunk0 runs remoteConfig on a daemon over dir whose clock the
// test moves: every chunk but 0 is answered without a lease, and chunk
// 0 is leased and left to time out until its attempts are spent. It
// returns the daemon and the job's final status.
func exhaustChunk0(t *testing.T, dir string) (*Service, *httptest.Server, JobStatus) {
	t.Helper()
	clk := newManualClock()
	svc, srv := remoteService(t, dir, clk)
	st := submit(t, svc, remoteConfig)
	all := entries(t, remoteConfig)

	for attempt := 1; ; attempt++ {
		if ci := leaseNext(t, svc, srv, st.ID, st.SpecHash); ci != 0 {
			t.Fatalf("grant %d was of chunk %d, want 0", attempt, ci)
		}
		if attempt == 1 {
			for ci := 1; ci < len(all); ci++ {
				if code, body := call(t, srv, "PUT", chunkPath(st.ID, ci), all[ci]); code != http.StatusNoContent {
					t.Fatalf("chunk %d: %d %s", ci, code, body)
				}
			}
		}
		clk.Advance(leaseTimeout)
		if attempt == leaseAttempts {
			break
		}
		clk.Advance(leaseBackoff << (attempt - 1))
	}
	return svc, srv, waitDone(t, svc, st.ID)
}

// TestRemoteAttemptsExhausted: a chunk whose leases keep timing out
// fails its job once its attempts are spent, with an error naming it.
// The failed job grants no lease and holds no state, and it is
// journaled failed, as a restarted daemon lists it.
func TestRemoteAttemptsExhausted(t *testing.T) {
	dir := t.TempDir()
	svc, srv, fin := exhaustChunk0(t, dir)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "chunk(s) [0] failed after exhausting lease attempts") ||
		!strings.Contains(fin.Error, "lease expired") {
		t.Fatalf("job finished %s: %q", fin.State, fin.Error)
	}
	if code, body := call(t, srv, "POST", "/api/v1/jobs/"+fin.ID+"/lease", leaseBody(fin.SpecHash)); code != http.StatusConflict {
		t.Fatalf("lease on a failed job: %d %s", code, body)
	}
	checkReleased(t, svc, fin.ID)
	srv.Close()
	svc.Close()
	if got := journalState(t, dir, fin.ID); got != StateFailed {
		t.Fatalf("exhausted job journaled %s", got)
	}

	svc, _ = remoteService(t, dir, nil)
	if st, _ := svc.Status(fin.ID); st.State != StateFailed {
		t.Fatalf("restarted daemon lists the exhausted job %s", st.State)
	}
}

// TestRemoteResumeRetriesOnlyFailed: every chunk but the one whose
// attempts ran out was checkpointed on the way to the failure, so a
// resubmission to a restarted daemon, on the wall clock, computes
// exactly the failed chunk and serves fleet.Run's bytes.
func TestRemoteResumeRetriesOnlyFailed(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	dir := t.TempDir()
	svc, srv, fin := exhaustChunk0(t, dir)
	if fin.State != StateFailed {
		t.Fatalf("job finished %s: %q", fin.State, fin.Error)
	}
	srv.Close()
	svc.Close()

	svc, srv = remoteService(t, dir, nil)
	again := submit(t, svc, remoteConfig)
	stop := startWork(srv.URL, 2)
	fin = waitDone(t, svc, again.ID)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Loaded != fin.Chunks-1 || fin.Computed != 1 {
		t.Fatalf("resubmission finished %s (%s): loaded %d, computed %d of %d", fin.State, fin.Error, fin.Loaded, fin.Computed, fin.Chunks)
	}
	if _, err := svc.store.Get(fin.SpecHash, 0); err != nil {
		t.Fatalf("the failed chunk was not checkpointed on resubmission: %v", err)
	}
	checkReports(t, svc, again.ID, wantCSV, wantJSON)
}

// TestRemoteStoreResume: a daemon that computes nothing itself loads
// whatever the store holds for a job's spec and leases only the rest;
// over a complete store it finishes with no worker at all.
func TestRemoteStoreResume(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	job, err := fleet.NewJob(remoteConfig)
	if err != nil {
		t.Fatal(err)
	}
	n := job.NumChunks()
	for _, k := range []int{5, n} {
		dir := t.TempDir()
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for ci := 0; ci < k; ci++ {
			if err := store.Put(job.SpecHash(), ci, runChunk(t, job, ci)); err != nil {
				t.Fatal(err)
			}
		}
		svc, srv := remoteService(t, dir, nil)
		st := submit(t, svc, remoteConfig)
		stop := func() error { return nil }
		if k < n {
			stop = startWork(srv.URL, 2)
		}
		fin := waitDone(t, svc, st.ID)
		if err := stop(); err != nil {
			t.Fatal(err)
		}
		if fin.State != StateDone || fin.Loaded != k || fin.Computed != n-k {
			t.Fatalf("store of %d chunks: job finished %s (%s), loaded %d, computed %d of %d", k, fin.State, fin.Error, fin.Loaded, fin.Computed, n)
		}
		checkReports(t, svc, st.ID, wantCSV, wantJSON)
	}
}

// TestRemoteStoreEntriesValidated: entries filed under a job's chunks
// that cannot belong to them are not loaded. Chunk 1's entry in chunk
// 0's slot, another spec's entry in chunk 1's, a bit-flipped entry in
// chunk 2's and a well-formed entry whose histogram has bins the fleet
// never makes in chunk 3's are each quarantined; a daemon that computes
// nothing itself loads only the valid entries, leases every other
// chunk, and serves fleet.Run's bytes.
func TestRemoteStoreEntriesValidated(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	all := entries(t, remoteConfig)
	other := remoteConfig
	other.Seed++
	otherJob, err := fleet.NewJob(other)
	if err != nil {
		t.Fatal(err)
	}
	otherEntry, err := EncodeEntry(otherJob.SpecHash(), 1, runChunk(t, otherJob, 1))
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), all[2]...)
	flipped[entryHeaderLen+1] ^= 0x40
	bent := bentEntry(t, remoteConfig, 3, extraBins)
	filed := [][]byte{all[1], otherEntry, flipped, bent, all[4], all[5]} // entry i in chunk i's slot

	dir := t.TempDir()
	job, err := fleet.NewJob(remoteConfig)
	if err != nil {
		t.Fatal(err)
	}
	hash := job.SpecHash()
	if err := os.MkdirAll(filepath.Join(dir, "partials", hash), 0o755); err != nil {
		t.Fatal(err)
	}
	for ci, entry := range filed {
		if err := os.WriteFile(filepath.Join(dir, "partials", hash, chunkFile(ci)), entry, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc, srv := remoteService(t, dir, nil)
	st := submit(t, svc, remoteConfig)
	stop := startWork(srv.URL, 2)
	fin := waitDone(t, svc, st.ID)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Loaded != 2 || fin.Computed != fin.Chunks-2 {
		t.Fatalf("job finished %s (%s), loaded %d, computed %d of %d", fin.State, fin.Error, fin.Loaded, fin.Computed, fin.Chunks)
	}
	if q := quarantined(t, svc.store); q != 4 {
		t.Fatalf("%d entries quarantined, want 4", q)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// TestRemotePutFailureFailsJob: a result that validates but cannot be
// checkpointed fails its job: losing durability silently would defeat
// the resume guarantee.
func TestRemotePutFailureFailsJob(t *testing.T) {
	svc, srv := remoteService(t, t.TempDir(), nil)
	st := submit(t, svc, remoteConfig)
	ci := leaseNext(t, svc, srv, st.ID, st.SpecHash)
	// The job is leasing, so its checkpoints are loaded; a file where
	// its partials directory goes makes every Put fail.
	if err := os.WriteFile(filepath.Join(svc.store.Dir(), "partials", st.SpecHash), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := call(t, srv, "PUT", chunkPath(st.ID, ci), entries(t, remoteConfig)[ci])
	if code != http.StatusInternalServerError || !strings.Contains(body, "checkpointing chunk") {
		t.Fatalf("unstorable result: %d %s", code, body)
	}
	fin := waitDone(t, svc, st.ID)
	if fin.State != StateFailed || !strings.Contains(fin.Error, "checkpointing chunk") || fin.Computed != 0 {
		t.Fatalf("job finished %s (%q) with %d chunks computed", fin.State, fin.Error, fin.Computed)
	}
}

// TestRemoteCanceledJob: a job canceled while a worker holds its leases
// answers that worker's result 409, and the worker moves on to the next
// job.
func TestRemoteCanceledJob(t *testing.T) {
	svc, srv := remoteService(t, t.TempDir(), nil)
	first := submit(t, svc, remoteConfig)
	ci := leaseNext(t, svc, srv, first.ID, first.SpecHash)
	if _, err := svc.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	code, body := call(t, srv, "PUT", chunkPath(first.ID, ci), entries(t, remoteConfig)[ci])
	if code != http.StatusConflict || !strings.Contains(body, "canceled") {
		t.Fatalf("result for a canceled job: %d %s", code, body)
	}
	if st, _ := svc.Status(first.ID); st.Computed != 0 {
		t.Fatalf("canceled job counted %d chunks", st.Computed)
	}

	// A Work loop whose first lease is on a job canceled right after the
	// grant: its result is refused, and it goes on to finish the other.
	cfg := remoteConfig
	cfg.Seed = 9
	wantCSV, wantJSON := reports(t, cfg)
	doomed := submit(t, svc, remoteConfig)
	other := submit(t, svc, cfg)
	var canceled atomic.Bool
	cancelling := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &codeRecorder{ResponseWriter: w}
		svc.Handler().ServeHTTP(rec, r)
		if r.URL.Path == "/api/v1/jobs/"+doomed.ID+"/lease" && rec.code == http.StatusOK && !canceled.Swap(true) {
			if _, err := svc.Cancel(doomed.ID); err != nil {
				t.Error(err)
			}
		}
	}))
	defer cancelling.Close()
	stop := startWork(cancelling.URL, 1)
	fin := waitDone(t, svc, other.ID)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if !canceled.Load() {
		t.Fatal("the worker never leased a chunk of the doomed job")
	}
	if st, _ := svc.Status(doomed.ID); st.State != StateCanceled || st.Computed != 0 {
		t.Fatalf("doomed job: %s with %d chunks computed", st.State, st.Computed)
	}
	if fin.State != StateDone {
		t.Fatalf("other job finished %s: %s", fin.State, fin.Error)
	}
	checkReports(t, svc, other.ID, wantCSV, wantJSON)
}

// TestRemoteWorkCanceled: a worker whose context ends returns nil
// promptly, even with a request to a silent daemon in flight.
func TestRemoteWorkCanceled(t *testing.T) {
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer silent.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- Work(ctx, silent.URL, 1) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("canceled worker returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled worker did not return")
	}
}

// TestRemoteWorkerWaitsForDaemon: a worker started before the daemon
// listens joins once it does.
func TestRemoteWorkerWaitsForDaemon(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: the worker's first requests are refused

	stop := startWork("http://"+addr, 2)
	time.Sleep(200 * time.Millisecond)
	svc := newRemoteService(t, t.TempDir())
	srv := serveOn(t, addr, svc)
	defer func() {
		srv.Close()
		svc.Close()
	}()
	st := submit(t, svc, remoteConfig)
	fin := waitDone(t, svc, st.ID)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// serveOn serves svc's API on addr.
func serveOn(t *testing.T, addr string, svc *Service) *httptest.Server {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewUnstartedServer(svc.Handler())
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	return srv
}

// TestRemoteDaemonRestartMidJob: a daemon closed in the middle of a
// distributed job, as the crash tests close it, resumes on the same
// store and address. The worker, still running, rejoins; the resumed
// job loads the chunks the worker finished before the close and serves
// fleet.Run's bytes.
func TestRemoteDaemonRestartMidJob(t *testing.T) {
	cfg := fleet.Config{N: 240, Seed: 4, Scale: 0.05, ChunkSize: 8} // 30 chunks
	wantCSV, wantJSON := reports(t, cfg)
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	svc := newRemoteService(t, dir)
	srv := serveOn(t, addr, svc)
	stop := startWork("http://"+addr, 2)
	defer stop()
	st := submit(t, svc, cfg)
	waitStatus(t, svc, st.ID, "three remote chunks", func(s JobStatus) bool { return s.Computed >= 3 })
	srv.Close()
	svc.Close()
	if got := journalState(t, dir, st.ID); got != StateQueued {
		t.Fatalf("interrupted job journaled %s", got)
	}

	svc = newRemoteService(t, dir)
	srv = serveOn(t, addr, svc)
	defer func() {
		srv.Close()
		svc.Close()
	}()
	fin := waitDone(t, svc, st.ID)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Loaded == 0 || fin.Loaded+fin.Computed != fin.Chunks {
		t.Fatalf("resumed job finished %s (%s): loaded %d, computed %d of %d", fin.State, fin.Error, fin.Loaded, fin.Computed, fin.Chunks)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}

// TestLocalLeasesNeverExpire: the service's own workers arm no lease
// timer, and moving the clock hours past the lease timeout while they
// run changes nothing: local leases never expire.
func TestLocalLeasesNeverExpire(t *testing.T) {
	wantCSV, wantJSON := reports(t, remoteConfig)
	clk := newManualClock()
	svc := openService(t, t.TempDir(), ServiceConfig{Jobs: 2})
	defer svc.Close()
	svc.clock = clk
	st := submit(t, svc, remoteConfig)
	// The clock moves an hour at every status change until the job ends.
	fin := waitStatus(t, svc, st.ID, "the job's end", func(s JobStatus) bool {
		clk.Advance(time.Hour)
		return terminal(s.State)
	})
	if n := clk.arms(); n != 0 {
		t.Fatalf("local leases armed %d timers", n)
	}
	if fin.State != StateDone || fin.Computed != fin.Chunks {
		t.Fatalf("job finished %s (%s), %d of %d chunks computed", fin.State, fin.Error, fin.Computed, fin.Chunks)
	}
	checkReports(t, svc, st.ID, wantCSV, wantJSON)
}
