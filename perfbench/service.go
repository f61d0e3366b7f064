package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
)

// clients is the closed-loop client count of the service workload:
// daemon callers wait for their report before submitting again.
const clients = 2

// daemon is an in-process capyfleet daemon: a Service over a fresh store
// in its own directory, served on a loopback listener.
type daemon struct {
	dir  string
	svc  *fleetsvc.Service
	srv  *http.Server
	base string
	done chan error
	http *http.Client
}

// bootDaemon opens an empty store under root and starts a daemon on it
// with one simulation worker per job and two jobs at once.
func bootDaemon(root string) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	d := &daemon{dir: dir}
	fail := func(err error) (*daemon, error) {
		d.close()
		return nil, err
	}
	store, err := fleetsvc.Open(dir)
	if err != nil {
		return fail(err)
	}
	if d.svc, err = fleetsvc.NewService(fleetsvc.ServiceConfig{Store: store, Jobs: 1, MaxConcurrent: 2}); err != nil {
		return fail(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("listen: %w", err))
	}
	d.srv = &http.Server{Handler: d.svc.Handler()}
	d.done = make(chan error, 1)
	go func() { d.done <- d.srv.Serve(ln) }()
	d.base = "http://" + ln.Addr().String() + "/api/v1"
	d.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true,
	}}
	resp, err := d.http.Get(d.base + "/healthz")
	if err != nil {
		return fail(fmt.Errorf("healthz: %w", err))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("healthz: %s", resp.Status))
	}
	return d, nil
}

// close stops the server and the service, waits for both, and removes
// the store.
func (d *daemon) close() {
	if d.srv != nil {
		d.srv.Close()
		<-d.done
	}
	if d.http != nil {
		d.http.CloseIdleConnections()
	}
	if d.svc != nil {
		d.svc.Close()
	}
	os.RemoveAll(d.dir)
}

// jobResult is one daemon job as its client saw it.
type jobResult struct {
	total                   time.Duration // POST start to report fully read, or to the failure
	submit                  time.Duration // the POST round trip
	queue                   time.Duration // submit start to the first event past queued
	run                     time.Duration // that event to the terminal one
	fetch                   time.Duration // the report GET
	devices, chunks, loaded int
	err                     error
}

// drive submits specs[order[i]] for every i from clients closed-loop
// clients and checks each fetched report against refs. wantLoaded
// requires every chunk of every job to come from the store.
func (d *daemon) drive(ctx context.Context, specs []fleet.Spec, refs [][]byte, order []int, wantLoaded bool, tr *tracer, op *atomic.Int64) []jobResult {
	out := make([]jobResult, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) || ctx.Err() != nil {
					return
				}
				k := order[i]
				r := d.job(ctx, specs[k], refs[k], tr, int(op.Add(1)))
				if r.err == nil && wantLoaded && r.loaded != r.chunks {
					r.err = fmt.Errorf("warm job loaded %d of %d chunks", r.loaded, r.chunks)
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// job runs one daemon operation: POST the spec, follow the NDJSON stream
// to its terminal line, GET the report and compare it byte for byte
// with ref. Its total is set however the operation ends.
func (d *daemon) job(ctx context.Context, s fleet.Spec, ref []byte, tr *tracer, op int) (r jobResult) {
	root := tr.begin("fleetsvc.job", 0, op)
	defer root.end()
	t0 := time.Now()
	defer func() { r.total = time.Since(t0) }()

	sp := tr.begin("fleetsvc.submit", root.id, op)
	var st fleetsvc.JobStatus
	body, err := json.Marshal(fleetsvc.SubmitRequest{N: s.N, Seed: s.Seed, Scale: s.Scale, ChunkSize: s.ChunkSize})
	if err == nil {
		err = d.call(ctx, http.MethodPost, "/jobs", body, http.StatusCreated, func(b io.Reader) error {
			return json.NewDecoder(b).Decode(&st)
		})
	}
	r.err = err
	sp.end()
	r.submit = time.Since(t0)
	if r.err != nil {
		return r
	}

	sp = tr.begin("fleetsvc.stream", root.id, op)
	var tRun time.Duration
	r.err = d.call(ctx, http.MethodGet, "/jobs/"+st.ID+"/stream", nil, http.StatusOK, func(b io.Reader) error {
		sc := bufio.NewScanner(b)
		for sc.Scan() {
			if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
				return fmt.Errorf("stream line: %w", err)
			}
			if tRun == 0 && st.State != fleetsvc.StateQueued {
				tRun = time.Since(t0)
			}
			switch st.State {
			case fleetsvc.StateDone:
				return nil
			case fleetsvc.StateFailed, fleetsvc.StateCanceled:
				return fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		return errors.New("stream ended without a terminal line")
	})
	sp.end()
	r.queue, r.run = tRun, time.Since(t0)-tRun
	r.devices, r.chunks, r.loaded = st.Devices, st.Chunks, st.Loaded
	if r.err != nil {
		return r
	}

	f0 := time.Now()
	sp = tr.begin("fleetsvc.report_fetch", root.id, op)
	var report []byte
	r.err = d.call(ctx, http.MethodGet, "/jobs/"+st.ID+"/report", nil, http.StatusOK, func(b io.Reader) error {
		var err error
		report, err = io.ReadAll(b)
		return err
	})
	sp.end()
	r.fetch = time.Since(f0)
	if r.err == nil && !bytes.Equal(report, ref) {
		r.err = fmt.Errorf("job %s: report differs from the in-process fleet.Run report (%s)", st.ID,
			checkDigest(report, digest(ref)))
	}
	return r
}

// call makes one API request and hands a response with the wanted
// status to read; any other status is an error.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, want int, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	// Drain so the connection is reused.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// serviceReferences computes each spec's in-process fleet.Run report:
// the bytes the daemon must serve for it.
func serviceReferences(ctx context.Context, specs []fleet.Spec) ([][]byte, error) {
	var refs [][]byte
	for _, s := range specs {
		res, err := fleet.Run(ctx, config(s, workers))
		if err != nil {
			return nil, fmt.Errorf("reference for seed %d: %w", s.Seed, err)
		}
		csv, err := csvReport(res)
		if err != nil {
			return nil, err
		}
		refs = append(refs, csv)
	}
	return refs, nil
}

// session is one daemon's life: every spec cold into its empty store
// (the write path: compute, Store.Put, journal, report), then warmReps
// passes resubmitting the same specs, every chunk a Store.Get (the read
// path).
type session struct {
	cold, warm         []jobResult
	coldTime, warmTime time.Duration
	// heapPerJob is the live-heap growth across the warm passes per warm
	// job, in bytes (the job table keeps every job's partials). Only a
	// traced session measures it: the collections it forces would move
	// the untraced timings.
	heapPerJob float64
}

func (d *daemon) session(ctx context.Context, specs []fleet.Spec, refs [][]byte, warmReps int, tr *tracer, op *atomic.Int64) session {
	var s session
	t0 := time.Now()
	s.cold = d.drive(ctx, specs, refs, sequence(len(specs), 1), false, tr, op)
	s.coldTime = time.Since(t0)
	var h0 int64
	if tr != nil {
		h0 = liveHeap()
	}
	t0 = time.Now()
	s.warm = d.drive(ctx, specs, refs, sequence(len(specs), warmReps), true, tr, op)
	s.warmTime = time.Since(t0)
	if tr != nil {
		s.heapPerJob = float64(liveHeap()-h0) / float64(len(s.warm))
	}
	return s
}

// liveHeap returns the heap in use right after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// sequence lists spec indices 0..n-1, repeated reps times.
func sequence(n, reps int) []int {
	out := make([]int, 0, n*reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
	}
	return out
}
