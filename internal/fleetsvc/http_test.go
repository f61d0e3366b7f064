package fleetsvc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
// error shapes against one live service.
func TestHTTPAPI(t *testing.T) {
	svc, srv := testServer(t, ServiceConfig{})

	// One finished job to serve reports from.
	done, err := svc.Submit(fleet.Spec{N: 16, Seed: 2, Scale: 0.02, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, done.ID); st.State != StateDone {
		t.Fatalf("setup job finished %s: %s", st.State, st.Error)
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
	spec := fleet.Spec{N: 16, Seed: 5, Scale: 0.02, ChunkSize: 8}
	fj, err := fleet.NewJob(spec.Exec(1))
	if err != nil {
		t.Fatal(err)
	}
	resolved := fj.Spec()
	id := "j900000"
	svc.mu.Lock()
	j := svc.track(id, fj, SpecInfo{N: resolved.N, Seed: resolved.Seed, Scale: resolved.Scale, ChunkSize: resolved.ChunkSize})
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
