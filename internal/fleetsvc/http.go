package fleetsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"capybara/internal/fleet"
)

// HTTP/JSON API over a Service, mounted by capyfleet -serve-http:
//
//	POST   /api/v1/jobs               submit {"n","seed","scale","chunk_size"} → 201 + status
//	GET    /api/v1/jobs               list all jobs (?state=running, or another state, lists only that state's; 400 for an unknown one)
//	GET    /api/v1/jobs/{id}          one job's status (?cohorts=1 adds the per-cohort fold; see Cohorts)
//	GET    /api/v1/jobs/{id}/report   finished report, CSV (?format=json for JSON); 409 until done
//	GET    /api/v1/jobs/{id}/stream   NDJSON status events until the job reaches a terminal state
//	POST   /api/v1/jobs/{id}/cancel   cancel a queued/running job
//	GET    /api/v1/healthz            liveness + queue depth
//
// Remote workers (Work) lease chunks of running jobs and send each
// result back as one store entry (see lease.go for the lease rules):
//
//	POST   /api/v1/jobs/{id}/lease        {"spec_hash"} → 200 {"chunk"}, or 204 when no chunk is eligible now
//	PUT    /api/v1/jobs/{id}/chunks/{ci}  body: the chunk's store entry (EncodeEntry) → 204
//
// A lease whose spec hash is not the job's, and a lease or a result for
// a job that is not leasing chunks, get 409. A result is accepted
// whenever its job is leasing and its entry validates, whether or not
// its lease is current; a duplicate gets 204 and changes nothing. Like
// every endpoint, these trust any client that can reach the daemon.
//
// Every JSON response is either a JobStatus (see service.go), a list
// wrapper, a lease, or {"error": "..."} with a matching HTTP status.

// SubmitRequest is the POST /jobs body: the canonical report spec.
// Parallelism is deliberately absent — it belongs to the daemon, and
// it cannot change a byte of the report.
type SubmitRequest = fleet.Spec

// statusResponse is JobStatus plus the optional cohort fold.
type statusResponse struct {
	JobStatus
	Cohorts []CohortProgress `json:"cohorts,omitempty"`
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /api/v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/v1/jobs/{id}/lease", s.handleLease)
	mux.HandleFunc("PUT /api/v1/jobs/{id}/chunks/{ci}", s.handleResult)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	states := map[string]int{}
	for _, st := range s.List() {
		states[st.State]++
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "jobs": states})
}

// maxSubmitBody bounds a submit body. A real one is under 200 bytes;
// the bound keeps a client from streaming unlimited data into the
// decoder.
const maxSubmitBody = 64 << 10

// decodeSubmit reads a submit body without submitting it. The body must
// be at most maxSubmitBody bytes (413 otherwise) and hold exactly one
// JSON spec object with no unknown fields (400 otherwise). On success
// the status is 0.
func decodeSubmit(w http.ResponseWriter, r *http.Request) (SubmitRequest, int, error) {
	var req SubmitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return req, http.StatusRequestEntityTooLarge, fmt.Errorf("submit body exceeds %d bytes", tooBig.Limit)
	}
	if err != nil {
		return req, http.StatusBadRequest, fmt.Errorf("reading submit body: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("data after the JSON object")
	}
	if err != nil {
		return req, http.StatusBadRequest, fmt.Errorf("bad submit body: %w", err)
	}
	return req, 0, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, code, err := decodeSubmit(w, r)
	if err != nil {
		writeError(w, code, "%v", err)
		return
	}
	st, err := s.Submit(req)
	var bad badSpec
	switch {
	case errors.As(err, &bad):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// handleList lists every job, or with ?state= only the jobs in that
// state: a remote worker's poll asks for the running ones, so its cost
// follows the live jobs, not every job the daemon has tracked.
func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
	default:
		writeError(w, http.StatusBadRequest, "unknown state %q", state)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.list(state)})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	resp := statusResponse{JobStatus: st}
	if r.URL.Query().Get("cohorts") == "1" {
		// A done job's fold reads the store. The status is served
		// without it when it fails, as the stream does: a store read
		// error must not hide the job's state.
		if cohorts, err := s.Cohorts(r.Context(), id); err == nil {
			resp.Cohorts = cohorts
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	asJSON := false
	switch f := r.URL.Query().Get("format"); f {
	case "", "csv":
	case "json":
		asJSON = true
	default:
		writeError(w, http.StatusBadRequest, "unknown format %q (want csv or json)", f)
		return
	}
	data, err := s.Report(id, asJSON)
	if err != nil {
		if st.State == StateFailed || st.State == StateCanceled {
			writeError(w, http.StatusConflict, "job %s is %s: %s", id, st.State, st.Error)
		} else if st.State != StateDone {
			writeError(w, http.StatusConflict, "job %s is %s; report is available when done", id, st.State)
		} else {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	_, _ = w.Write(data)
}

// handleStream writes NDJSON status events: one line per observed
// change (coalesced under load), always ending with a terminal-state
// line. ?cohorts=1 embeds the per-cohort fold (see Cohorts) in every
// event.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, stop, ok := s.Watch(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	defer stop()
	withCohorts := r.URL.Query().Get("cohorts") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	emit := func() (terminalState bool, err error) {
		st, ok := s.Status(id)
		if !ok {
			return true, errors.New("job vanished")
		}
		resp := statusResponse{JobStatus: st}
		if withCohorts {
			if cohorts, cerr := s.Cohorts(r.Context(), id); cerr == nil {
				resp.Cohorts = cohorts
			}
		}
		if err := enc.Encode(resp); err != nil {
			return true, err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return terminal(st.State), nil
	}
	// finish upholds the stream contract after the 200 is committed:
	// every stream ends with a terminal-state line. A clean terminal
	// event already is one; an emit failure (the job vanished, or the
	// encode broke mid-object) gets a synthetic failed-state line
	// instead of a silent truncation the client would misread as a
	// dropped connection. Best-effort by construction — if the
	// connection itself is gone the write is moot.
	finish := func(err error) {
		if err == nil {
			return
		}
		_ = enc.Encode(JobStatus{ID: id, State: StateFailed, Error: fmt.Sprintf("stream aborted: %v", err)})
		if flusher != nil {
			flusher.Flush()
		}
	}

	if done, err := emit(); done || err != nil {
		finish(err)
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ch:
			if done, err := emit(); done || err != nil {
				finish(err)
				return
			}
		}
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Status(id); !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	st, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// leaseRequest is the POST /lease body: the spec hash the worker's own
// build derives from the job's spec.
type leaseRequest struct {
	SpecHash string `json:"spec_hash"`
}

// leaseResponse is a granted lease: the chunk to compute.
type leaseResponse struct {
	Chunk int `json:"chunk"`
}

// handleLease grants a remote worker one chunk of a running job. A
// worker whose build derives another spec hash is refused before it
// holds a lease, so it uses up no attempt.
func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	var req leaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad lease body: %v", err)
		return
	}
	if req.SpecHash != j.hash {
		writeError(w, http.StatusConflict, "spec hash mismatch: daemon %s, worker %s (mismatched binaries?)", j.hash, req.SpecHash)
		return
	}
	ci, ok, err := j.lease()
	switch {
	case err != nil:
		st, _ := s.Status(id)
		writeError(w, http.StatusConflict, "job %s is %s and not leasing chunks", id, st.State)
	case !ok:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, leaseResponse{Chunk: ci})
	}
}

// handleResult takes a remote worker's result for chunk ci: one store
// entry, checked by DecodeEntry against the job's spec hash and the
// chunk, stored, and only then counted. A result that does not validate
// sends its chunk back to be leased again, with the attempt counted.
func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	ci, err := strconv.Atoi(r.PathValue("ci"))
	if err != nil || ci < 0 || ci >= j.chunks {
		writeError(w, http.StatusBadRequest, "chunk %q is not in [0, %d)", r.PathValue("ci"), j.chunks)
		return
	}
	entry, err := io.ReadAll(http.MaxBytesReader(w, r.Body, entryHeaderLen+maxEntryPayload))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "entry exceeds %d bytes", tooBig.Limit)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading chunk %d: %v", ci, err)
		return
	}
	cp, err := DecodeEntry(entry, j.hash, ci)
	if err != nil {
		j.refuse(ci, fmt.Errorf("refused result: %v", err))
		writeError(w, http.StatusBadRequest, "chunk %d: %v", ci, err)
		return
	}
	switch err := s.accept(j, cp, entry); {
	case errors.Is(err, errNotRunning):
		st, _ := s.Status(id)
		writeError(w, http.StatusConflict, "job %s is %s and not leasing chunks", id, st.State)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}
