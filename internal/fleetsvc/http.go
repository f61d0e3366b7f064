package fleetsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"capybara/internal/fleet"
)

// HTTP/JSON API over a Service, mounted by capyfleet -serve-http:
//
//	POST   /api/v1/jobs               submit {"n","seed","scale","chunk_size"} → 201 + status
//	GET    /api/v1/jobs               list all jobs
//	GET    /api/v1/jobs/{id}          one job's status (?cohorts=1 adds the running per-cohort fold)
//	GET    /api/v1/jobs/{id}/report   finished report, CSV (?format=json for JSON); 409 until done
//	GET    /api/v1/jobs/{id}/stream   NDJSON status events until the job reaches a terminal state
//	POST   /api/v1/jobs/{id}/cancel   cancel a queued/running job
//	GET    /api/v1/healthz            liveness + queue depth
//
// Every JSON response is either a JobStatus (see service.go), a list
// wrapper, or {"error": "..."} with a matching HTTP status.

// SubmitRequest is the POST /jobs body: the canonical report spec.
// Parallelism is deliberately absent — it belongs to the daemon, and
// it cannot change a byte of the report.
type SubmitRequest struct {
	N         int     `json:"n"`
	Seed      int64   `json:"seed"`
	Scale     float64 `json:"scale"`
	ChunkSize int     `json:"chunk_size"`
}

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

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("data after the JSON object")
	}
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "submit body exceeds %d bytes", tooBig.Limit)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad submit body: %v", err)
		return
	}
	st, err := s.Submit(fleet.Spec{N: req.N, Seed: req.Seed, Scale: req.Scale, ChunkSize: req.ChunkSize})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
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
		cohorts, err := s.Cohorts(id)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp.Cohorts = cohorts
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
// line. ?cohorts=1 embeds the running per-cohort fold in every event.
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
			if cohorts, cerr := s.Cohorts(id); cerr == nil {
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
