package fleetsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"capybara/internal/fleet"
)

// idleWait is how long a remote worker waits before asking the daemon
// again, when no running job has a chunk for it or the daemon is
// unreachable.
const idleWait = 100 * time.Millisecond

// Work runs a remote worker for the daemon at baseURL (capyfleet
// -connect) until ctx ends, and then returns nil. It leases chunks of
// the daemon's running jobs, holding at most jobs leases at a time,
// computes them through fleet.Job.Compute and sends each result back as
// a store entry; see the HTTP API in http.go. It builds one fleet.Job
// per running job from the spec the daemon lists, and drops it once the
// job stops running. Every job's Compute shares one event-free prefix
// store that lives as long as the worker, so later jobs resume devices
// from prefixes that earlier ones simulated.
//
// Work returns an error when this build cannot serve the daemon: a
// listed job whose spec hash the worker's own build does not reproduce
// (mismatched binaries), or a chunk that fails here. It retries
// connection errors until ctx ends, since a daemon restart is expected.
// A result the daemon answers with anything but a connection error is
// settled: the worker moves on.
func Work(ctx context.Context, baseURL string, jobs int) error {
	if jobs < 1 {
		return fmt.Errorf("fleetsvc: a worker needs at least 1 job, got %d", jobs)
	}
	wctx, cancel := context.WithCancelCause(ctx)
	w := &worker{
		ctx:      wctx,
		cancel:   cancel,
		base:     strings.TrimRight(baseURL, "/"),
		hc:       &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone(), Timeout: 30 * time.Second},
		jobs:     jobs,
		slots:    make(chan struct{}, jobs),
		prefixes: fleet.NewPrefixes(),
	}
	defer w.stop()
	for {
		select {
		case w.slots <- struct{}{}: // hold a slot for the next lease
		case <-wctx.Done():
			return w.failure(ctx)
		}
		for !w.lease() {
			select {
			case <-time.After(idleWait):
			case <-wctx.Done():
				return w.failure(ctx)
			}
		}
	}
}

type worker struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	base   string
	hc     *http.Client
	jobs   int
	slots  chan struct{} // one token per lease held
	list   []*remoteJob  // the daemon's running jobs, in its order
	wg     sync.WaitGroup
	// prefixes is the event-free prefix store every job's Compute shares.
	prefixes *fleet.Prefixes
}

// remoteJob is one running daemon job as a worker runs it.
type remoteJob struct {
	id     string
	fj     *fleet.Job
	chunks chan int // leased chunks; never more than the worker's jobs at once
}

// next hands the job's Compute its next leased chunk. ok is false once
// the job stopped running here or ctx is done.
func (rj *remoteJob) next(ctx context.Context) (ci int, ok bool) {
	select {
	case ci, ok = <-rj.chunks:
		return ci, ok
	case <-ctx.Done():
		return 0, false
	}
}

// failure is what Work returns once the worker stopped: nil when its
// caller's ctx ended it, and what failed the worker otherwise.
func (w *worker) failure(ctx context.Context) error {
	if ctx.Err() != nil {
		return nil
	}
	return context.Cause(w.ctx)
}

// stop ends every job's Compute and waits for it.
func (w *worker) stop() {
	w.cancel(nil)
	for _, rj := range w.list {
		close(rj.chunks)
	}
	w.wg.Wait()
	w.hc.CloseIdleConnections()
}

// lease leases one chunk and hands it to its job's Compute. It asks the
// running jobs it knows, then lists the daemon's jobs again and asks
// those. It reports false when no chunk is leasable now, the daemon is
// unreachable, or the worker is failing.
func (w *worker) lease() bool {
	for _, relist := range []bool{false, true} {
		if relist && !w.refresh() {
			return false
		}
		for _, rj := range w.list {
			var lr leaseResponse
			body, _ := json.Marshal(leaseRequest{SpecHash: rj.fj.SpecHash()})
			if code, err := w.do(http.MethodPost, "/api/v1/jobs/"+rj.id+"/lease", body, &lr); err == nil && code == http.StatusOK {
				rj.chunks <- lr.Chunk
				return true
			}
		}
	}
	return false
}

// refresh replaces the worker's running jobs with the daemon's list,
// building a fleet.Job for each new one and dropping those that stopped
// running. An unreachable daemon leaves the list as it was. A job whose
// spec this build rejects or hashes differently fails the worker.
func (w *worker) refresh() bool {
	var listed struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if code, err := w.do(http.MethodGet, "/api/v1/jobs?state="+StateRunning, nil, &listed); err != nil || code != http.StatusOK {
		return false
	}
	var running []*remoteJob
	for _, st := range listed.Jobs {
		if st.State != StateRunning {
			continue // a daemon without the filter lists every job
		}
		rj := w.take(st.ID)
		if rj == nil {
			fj, err := fleet.NewJob(st.Spec.Exec(w.jobs))
			if err == nil && fj.SpecHash() != st.SpecHash {
				err = fmt.Errorf("spec hash mismatch: daemon %s, worker %s (mismatched binaries?)", st.SpecHash, fj.SpecHash())
			}
			if err != nil {
				w.cancel(fmt.Errorf("fleetsvc: job %s: %w", st.ID, err))
				return false
			}
			rj = w.start(st.ID, fj)
		}
		running = append(running, rj)
	}
	// What is left stopped running: its Compute finishes the chunks it
	// holds, whose results the daemon refuses, and returns.
	for _, rj := range w.list {
		close(rj.chunks)
	}
	w.list = running
	return true
}

// take removes the job with the given ID from the worker's list and
// returns it, or nil.
func (w *worker) take(id string) *remoteJob {
	for i, rj := range w.list {
		if rj.id == id {
			w.list = append(w.list[:i], w.list[i+1:]...)
			return rj
		}
	}
	return nil
}

// start runs the Compute that serves a newly listed job. A chunk that
// fails here fails the worker.
func (w *worker) start(id string, fj *fleet.Job) *remoteJob {
	rj := &remoteJob{id: id, fj: fj, chunks: make(chan int, w.jobs)}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		_, err := fj.Compute(w.ctx, w.jobs, w.prefixes, rj.next, func(cp *fleet.ChunkPartial) error {
			defer func() { <-w.slots }()
			entry, err := EncodeEntry(fj.SpecHash(), cp.Chunk, cp)
			if err != nil {
				return err
			}
			w.send(fmt.Sprintf("/api/v1/jobs/%s/chunks/%d", id, cp.Chunk), entry)
			return nil
		})
		if err != nil {
			w.cancel(fmt.Errorf("fleetsvc: job %s: %w", id, err))
		}
	}()
	return rj
}

// send PUTs one result, retrying connection errors until the daemon
// answers or the worker stops. Any answer settles it: a refusal means
// the job stopped running, or the daemon leases the chunk again.
func (w *worker) send(path string, entry []byte) {
	for {
		if _, err := w.do(http.MethodPut, path, entry, nil); err == nil {
			return
		}
		select {
		case <-time.After(idleWait):
		case <-w.ctx.Done():
			return
		}
	}
}

// do issues one request to the daemon and decodes a 200 response's
// JSON into out, when out is non-nil. The error is a transport error:
// the daemon did not answer.
func (w *worker) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(w.ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, err
		}
	}
	return resp.StatusCode, nil
}
