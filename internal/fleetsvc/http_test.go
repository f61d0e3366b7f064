package fleetsvc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"capybara/internal/fleet"
)

func testServer(t *testing.T, cfg ServiceConfig) (*Service, *httptest.Server) {
	t.Helper()
	svc := openService(t, t.TempDir(), cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func decodeStatus(t *testing.T, r io.Reader) JobStatus {
	t.Helper()
	var st JobStatus
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

// TestHTTPAPI is the table-driven pass over every route's success and
// error shapes against one live service. The service computes nothing
// itself, so its jobs lease their chunks to the test.
func TestHTTPAPI(t *testing.T) {
	svc, srv := remoteService(t, t.TempDir(), nil)

	// One finished job to serve reports from, computed by a remote
	// worker that stops before the other jobs start.
	doneCfg := fleet.Config{N: 16, Seed: 2, Scale: 0.02, ChunkSize: 8}
	done := submit(t, svc, doneCfg)
	stop := startWork(srv.URL, 1)
	if st := waitDone(t, svc, done.ID); st.State != StateDone {
		t.Fatalf("setup job finished %s: %s", st.State, st.Error)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// One canceled job (submit then cancel; with the slot likely busy it
	// cancels while queued — either way it is terminal and report-less).
	canceled, err := svc.Submit(fleet.Spec{N: 480, Seed: 3, Scale: 0.05, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	// Two leasing jobs of two chunks each, chunk 0 of each leased here.
	// The second cannot checkpoint: a file sits where its partials go.
	leasingCfg := fleet.Config{N: 16, Seed: 6, Scale: 0.02, ChunkSize: 8}
	leasing := submit(t, svc, leasingCfg)
	leaseNext(t, svc, srv, leasing.ID, leasing.SpecHash)
	brokenCfg := fleet.Config{N: 16, Seed: 7, Scale: 0.02, ChunkSize: 8}
	broken := submit(t, svc, brokenCfg)
	leaseNext(t, svc, srv, broken.ID, broken.SpecHash)
	if err := os.WriteFile(filepath.Join(svc.store.Dir(), "partials", broken.SpecHash), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	leasingEntry := string(entries(t, leasingCfg)[0])
	lease := func(id string) string { return "/api/v1/jobs/" + id + "/lease" }
	hashBody := func(hash string) string { return string(leaseBody(hash)) }

	tests := []struct {
		name     string
		method   string
		path     string
		body     string
		status   int
		contains string
	}{
		{"submit ok", "POST", "/api/v1/jobs", `{"n":16,"seed":4,"scale":0.02,"chunk_size":8}`, http.StatusCreated, `"state"`},
		{"submit rejects invalid spec", "POST", "/api/v1/jobs", `{"n":0}`, http.StatusBadRequest, "N must be positive"},
		{"submit rejects bad scale", "POST", "/api/v1/jobs", `{"n":8,"scale":3.5}`, http.StatusBadRequest, "bad scale"},
		{"submit rejects malformed json", "POST", "/api/v1/jobs", `{"n":`, http.StatusBadRequest, "bad submit body"},
		{"submit rejects unknown fields", "POST", "/api/v1/jobs", `{"n":8,"workers":4}`, http.StatusBadRequest, "bad submit body"},
		{"submit rejects data after the object", "POST", "/api/v1/jobs", `{"n":16,"seed":4} {"n":16}`, http.StatusBadRequest, "data after the JSON object"},
		{"submit accepts a trailing newline", "POST", "/api/v1/jobs", "{\"n\":16,\"seed\":5,\"scale\":0.02,\"chunk_size\":8}\n", http.StatusCreated, `"state"`},
		{"submit rejects an oversized body", "POST", "/api/v1/jobs", `{"n":16,"seed":4` + strings.Repeat(" ", maxSubmitBody) + `}`, http.StatusRequestEntityTooLarge, "exceeds"},
		{"submit is POST-only", "GET", "/api/v1/jobs/" + done.ID + "/cancel", "", http.StatusMethodNotAllowed, ""},
		{"list", "GET", "/api/v1/jobs", "", http.StatusOK, `"jobs"`},
		{"list running", "GET", "/api/v1/jobs?state=running", "", http.StatusOK, `"id": "` + leasing.ID + `"`},
		{"list done", "GET", "/api/v1/jobs?state=done", "", http.StatusOK, `"id": "` + done.ID + `"`},
		{"list canceled", "GET", "/api/v1/jobs?state=canceled", "", http.StatusOK, `"id": "` + canceled.ID + `"`},
		{"list rejects an unknown state", "GET", "/api/v1/jobs?state=finished", "", http.StatusBadRequest, "unknown state"},
		{"status ok", "GET", "/api/v1/jobs/" + done.ID, "", http.StatusOK, `"state": "done"`},
		{"status with cohorts", "GET", "/api/v1/jobs/" + done.ID + "?cohorts=1", "", http.StatusOK, `"cohorts"`},
		{"status unknown job", "GET", "/api/v1/jobs/j999999", "", http.StatusNotFound, "no job"},
		{"report csv", "GET", "/api/v1/jobs/" + done.ID + "/report", "", http.StatusOK, "app,variant,scenario"},
		{"report json", "GET", "/api/v1/jobs/" + done.ID + "/report?format=json", "", http.StatusOK, `"cohorts"`},
		{"report bad format", "GET", "/api/v1/jobs/" + done.ID + "/report?format=xml", "", http.StatusBadRequest, "unknown format"},
		{"report unknown job", "GET", "/api/v1/jobs/j999999/report", "", http.StatusNotFound, "no job"},
		{"report of canceled job", "GET", "/api/v1/jobs/" + canceled.ID + "/report", "", http.StatusConflict, "canceled"},
		{"cancel unknown job", "POST", "/api/v1/jobs/j999999/cancel", "", http.StatusNotFound, "no job"},
		{"cancel terminal job is idempotent", "POST", "/api/v1/jobs/" + canceled.ID + "/cancel", "", http.StatusOK, `"state": "canceled"`},
		{"stream unknown job", "GET", "/api/v1/jobs/j999999/stream", "", http.StatusNotFound, "no job"},
		{"healthz", "GET", "/api/v1/healthz", "", http.StatusOK, `"ok": true`},
		{"lease ok", "POST", lease(leasing.ID), hashBody(leasing.SpecHash), http.StatusOK, `"chunk": 1`},
		{"lease with no chunk eligible", "POST", lease(leasing.ID), hashBody(leasing.SpecHash), http.StatusNoContent, ""},
		{"lease rejects a malformed body", "POST", lease(leasing.ID), `{"spec_hash":`, http.StatusBadRequest, "bad lease body"},
		{"lease rejects another spec hash", "POST", lease(leasing.ID), hashBody("deadbeef"), http.StatusConflict, "spec hash mismatch: daemon " + leasing.SpecHash + ", worker deadbeef"},
		{"lease of a done job", "POST", lease(done.ID), hashBody(done.SpecHash), http.StatusConflict, "not leasing"},
		{"lease unknown job", "POST", "/api/v1/jobs/j999999/lease", hashBody(done.SpecHash), http.StatusNotFound, "no job"},
		{"lease is POST-only", "GET", lease(leasing.ID), "", http.StatusMethodNotAllowed, ""},
		{"result ok", "PUT", chunkPath(leasing.ID, 0), leasingEntry, http.StatusNoContent, ""},
		{"result duplicate", "PUT", chunkPath(leasing.ID, 0), leasingEntry, http.StatusNoContent, ""},
		{"result chunk out of range", "PUT", chunkPath(leasing.ID, 2), leasingEntry, http.StatusBadRequest, "not in [0, 2)"},
		{"result chunk not a number", "PUT", "/api/v1/jobs/" + leasing.ID + "/chunks/x", leasingEntry, http.StatusBadRequest, "not in [0, 2)"},
		{"result for another chunk", "PUT", chunkPath(leasing.ID, 1), leasingEntry, http.StatusBadRequest, "not 1"},
		{"result corrupt entry", "PUT", chunkPath(leasing.ID, 1), "garbage", http.StatusBadRequest, "shorter than"},
		{"result of another cohort grid", "PUT", chunkPath(leasing.ID, 1), string(bentEntry(t, leasingCfg, 1, oneCohort)), http.StatusBadRequest, "partial has 1 cohorts"},
		{"result with extra histogram bins", "PUT", chunkPath(leasing.ID, 1), string(bentEntry(t, leasingCfg, 1, extraBins)), http.StatusBadRequest, "latency histogram"},
		{"result too big", "PUT", chunkPath(leasing.ID, 1), strings.Repeat("x", entryHeaderLen+maxEntryPayload+1), http.StatusRequestEntityTooLarge, "exceeds"},
		{"result for a done job", "PUT", chunkPath(done.ID, 0), string(entries(t, doneCfg)[0]), http.StatusConflict, "not leasing"},
		{"result unknown job", "PUT", chunkPath("j999999", 0), leasingEntry, http.StatusNotFound, "no job"},
		{"result that cannot be stored", "PUT", chunkPath(broken.ID, 0), string(entries(t, brokenCfg)[0]), http.StatusInternalServerError, "checkpointing chunk 0"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("%s %s: got %d, want %d\nbody: %s", tc.method, tc.path, resp.StatusCode, tc.status, body)
			}
			if tc.contains != "" && !strings.Contains(string(body), tc.contains) {
				t.Fatalf("%s %s: body missing %q:\n%s", tc.method, tc.path, tc.contains, body)
			}
		})
	}

	// The filtered list holds running jobs only: the leasing one, and
	// neither the done nor the canceled one.
	code, body := call(t, srv, "GET", "/api/v1/jobs?state=running", nil)
	var listed struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &listed); code != http.StatusOK || err != nil {
		t.Fatalf("running list: %d %v\n%s", code, err, body)
	}
	found := false
	for _, st := range listed.Jobs {
		if st.State != StateRunning {
			t.Fatalf("running list holds job %s in state %s", st.ID, st.State)
		}
		found = found || st.ID == leasing.ID
	}
	if !found {
		t.Fatalf("running list lacks the leasing job %s:\n%s", leasing.ID, body)
	}
}

// TestHTTPCohortEngineStats: the ?cohorts=1 status view carries the
// per-cohort fold of a finished job's chunks — every device lands in
// exactly one listed cohort, and every listed cohort saw events.
func TestHTTPCohortEngineStats(t *testing.T) {
	svc, srv := testServer(t, ServiceConfig{})
	spec := fleet.Spec{N: 16, Seed: 2, Scale: 0.02, ChunkSize: 8}
	done, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, done.ID); st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}
	resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + done.ID + "?cohorts=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Cohorts []CohortProgress `json:"cohorts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	devices := 0
	for _, c := range doc.Cohorts {
		if c.Events == 0 {
			t.Fatalf("cohort %s lists %d devices but no events", c.Cohort, c.Devices)
		}
		devices += c.Devices
	}
	if devices != spec.N {
		t.Fatalf("cohorts hold %d devices, want %d", devices, spec.N)
	}
}

// TestHTTPSubmitToReportRoundTrip drives a job purely over HTTP —
// submit, poll, fetch both report formats — and checks the CSV equals
// the in-process baseline.
func TestHTTPSubmitToReportRoundTrip(t *testing.T) {
	cfg := fleet.Config{N: 32, Seed: 6, Scale: 0.02, ChunkSize: 8}
	want := baseline(t, cfg)
	_, srv := testServer(t, ServiceConfig{})

	body := fmt.Sprintf(`{"n":%d,"seed":%d,"scale":%g,"chunk_size":%d}`, cfg.N, cfg.Seed, cfg.Scale, cfg.ChunkSize)
	resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	deadline := time.After(60 * time.Second)
	for !terminal(st.State) {
		select {
		case <-deadline:
			t.Fatalf("job stuck at %+v", st)
		case <-time.After(20 * time.Millisecond):
		}
		resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		st = decodeStatus(t, resp.Body)
		resp.Body.Close()
	}
	if st.State != StateDone {
		t.Fatalf("job finished %s: %s", st.State, st.Error)
	}

	resp, err = srv.Client().Get(srv.URL + "/api/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("report content type %q", ct)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("HTTP-served report differs from in-process baseline")
	}

	resp, err = srv.Client().Get(srv.URL + "/api/v1/jobs/" + st.ID + "/report?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		N       int             `json:"n"`
		Cohorts json.RawMessage `json:"cohorts"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.N != cfg.N || len(doc.Cohorts) == 0 {
		t.Fatalf("JSON report malformed: n=%d cohorts=%d bytes", doc.N, len(doc.Cohorts))
	}
}

// TestHTTPStream reads a job's NDJSON stream end to end: every line
// must decode as a status for the job, done-counts must be monotonic,
// and the stream must end with a terminal line.
func TestHTTPStream(t *testing.T) {
	_, srv := testServer(t, ServiceConfig{Jobs: 1})

	resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"n":96,"seed":8,"scale":0.05,"chunk_size":8}`))
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	resp, err = srv.Client().Get(srv.URL + "/api/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, lastDone := 0, -1
	var last JobStatus
	for sc.Scan() {
		var ev JobStatus
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %d: %v\n%s", lines, err, sc.Text())
		}
		if ev.ID != st.ID {
			t.Fatalf("stream leaked job %s into %s's stream", ev.ID, st.ID)
		}
		if ev.Done < lastDone {
			t.Fatalf("stream went backwards: done %d after %d", ev.Done, lastDone)
		}
		lastDone = ev.Done
		last = ev
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stream produced no events")
	}
	if !terminal(last.State) {
		t.Fatalf("stream ended on non-terminal state %s", last.State)
	}
	if last.State != StateDone || last.Done != last.Chunks {
		t.Fatalf("final stream event %+v", last)
	}
}

// TestHTTPStreamVanishedJobEndsTerminal pins the stream contract's hard
// case: the 200 and some events are already written when the job
// disappears from the service table mid-stream. The stream must still
// end with a terminal-state line — a synthetic failed event — not a
// silent truncation the client would misread as a dropped connection.
func TestHTTPStreamVanishedJobEndsTerminal(t *testing.T) {
	svc, srv := testServer(t, ServiceConfig{})

	// Register a job without enqueueing it (white-box track), so it sits
	// in queued state forever: the stream cannot race to a real terminal
	// event before the test makes the job vanish.
	spec, info, fj, err := svc.resolve(fleet.Spec{N: 16, Seed: 5, Scale: 0.02, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	id := "j900000"
	svc.mu.Lock()
	j := svc.track(id, spec, info, fj)
	svc.mu.Unlock()

	resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream produced no first event: %v", sc.Err())
	}
	var first JobStatus
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first stream line: %v\n%s", err, sc.Text())
	}
	if first.State != StateQueued {
		t.Fatalf("first event state %s, want queued", first.State)
	}

	// Vanish: remove the job from the lookup table (the engine never
	// held it — it was never enqueued), then nudge the watcher so the
	// stream handler re-reads Status and finds nothing.
	svc.mu.Lock()
	delete(svc.jobs, id)
	svc.mu.Unlock()
	j.notify()

	var last JobStatus
	lines := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line after vanish: %v\n%s", err, sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("stream truncated with no terminal line after the job vanished")
	}
	if !terminal(last.State) || last.State != StateFailed {
		t.Fatalf("stream ended on state %q, want failed terminal event", last.State)
	}
	if last.ID != id || !strings.Contains(last.Error, "job vanished") {
		t.Fatalf("terminal event %+v, want id %s and a vanish error", last, id)
	}
}

// TestHTTPSubmitJournalFailure: a submit whose journal write fails is
// the server's fault. It answers 5xx and leaves no job behind, where a
// queued job that can never run used to stay listed. Once the journal
// is writable again, the next submit runs.
func TestHTTPSubmitJournalFailure(t *testing.T) {
	svc, srv := testServer(t, ServiceConfig{})
	restore := breakJournal(t, svc)
	submit := func() *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/api/v1/jobs", "application/json",
			strings.NewReader(`{"n":16,"seed":4,"scale":0.02,"chunk_size":8}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := submit()
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("submit with an unwritable journal: %d, want 5xx\nbody: %s", resp.StatusCode, body)
	}
	if list := svc.List(); len(list) != 0 {
		t.Fatalf("failed submit left jobs %+v", list)
	}

	restore()
	resp = submit()
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit after the journal came back: %d", resp.StatusCode)
	}
	if fin := waitDone(t, svc, st.ID); fin.State != StateDone {
		t.Fatalf("job finished %s: %s", fin.State, fin.Error)
	}
}

// cohortDevices sums the devices of a ?cohorts=1 answer.
func cohortDevices(cohorts []CohortProgress) int {
	n := 0
	for _, c := range cohorts {
		n += c.Devices
	}
	return n
}

// TestHTTPCohortsWhileJobsFinish polls ?cohorts=1 and reads
// /stream?cohorts=1 while cold and warm jobs run and finish, so a fold
// from a job's recorded partials races the job dropping them; run it
// with -race. Every answer must decode and count at most the spec's
// devices, and a done job's answer counts every device.
func TestHTTPCohortsWhileJobsFinish(t *testing.T) {
	svc, srv := testServer(t, ServiceConfig{Jobs: 1, MaxConcurrent: 2})
	specs := []fleet.Spec{
		{N: 96, Seed: 31, Scale: 0.05, ChunkSize: 8},
		{N: 56, Seed: 32, Scale: 0.05, ChunkSize: 8},
	}
	var wg sync.WaitGroup
	poll := func(id string, n int) {
		defer wg.Done()
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + id + "?cohorts=1")
			if err != nil {
				t.Error(err)
				return
			}
			var doc statusResponse
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("poll %s: %d, %v", id, resp.StatusCode, err)
				return
			}
			got := cohortDevices(doc.Cohorts)
			if got > n || (doc.State == StateDone && got != n) {
				t.Errorf("poll %s (%s): cohorts hold %d of %d devices", id, doc.State, got, n)
				return
			}
			if terminal(doc.State) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Errorf("poll %s: no terminal state", id)
	}
	stream := func(id string, n int) {
		defer wg.Done()
		resp, err := srv.Client().Get(srv.URL + "/api/v1/jobs/" + id + "/stream?cohorts=1")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var last statusResponse
		for sc.Scan() {
			last = statusResponse{}
			if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
				t.Errorf("stream %s: %v", id, err)
				return
			}
			if got := cohortDevices(last.Cohorts); got > n {
				t.Errorf("stream %s: cohorts hold %d of %d devices", id, got, n)
				return
			}
		}
		if got := cohortDevices(last.Cohorts); last.State != StateDone || got != n {
			t.Errorf("stream %s ended %s with %d of %d devices (%v)", id, last.State, got, n, sc.Err())
		}
	}
	watch := func(spec fleet.Spec) string {
		st, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go poll(st.ID, spec.N)
		go stream(st.ID, spec.N)
		return st.ID
	}
	first := watch(specs[0])
	watch(specs[1])
	watch(specs[0]) // shares the first job's chunks as they land
	if st := waitDone(t, svc, first); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	watch(specs[0]) // warm: the spec's reports are on disk
	wg.Wait()
}

// TestHTTPSubmitRejectsChunkOverflow: a spec whose chunk count overflows
// or exceeds fleet.MaxChunks gets a 400, and the daemon keeps
// answering: health, the job list and a valid submit each return
// within a deadline. Such a spec once panicked sizing the job's partial
// table while Submit held the service lock, which hung every later
// request.
func TestHTTPSubmitRejectsChunkOverflow(t *testing.T) {
	_, srv := testServer(t, ServiceConfig{Jobs: 1})
	client := srv.Client()
	client.Timeout = 10 * time.Second
	for _, body := range []string{
		`{"n":9223372036854775807,"seed":1}`,
		`{"n":2000000000,"chunk_size":1}`,
	} {
		resp, err := client.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("submit %s: %v", body, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %s: %d %s, want 400", body, resp.StatusCode, msg)
		}
	}
	for _, path := range []string{"/api/v1/healthz", "/api/v1/jobs"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s after the rejected submits: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
	}
	resp, err := client.Post(srv.URL+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"n":16,"seed":4,"scale":0.02,"chunk_size":8}`))
	if err != nil {
		t.Fatalf("valid submit after the rejected ones: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid submit: %d", resp.StatusCode)
	}
}
