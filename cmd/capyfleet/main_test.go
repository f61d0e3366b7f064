package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
)

func testOptions(n int, jobs int) *options {
	return &options{
		n:     n,
		seed:  7,
		jobs:  jobs,
		scale: 0.05,
	}
}

// TestRunEndToEnd exercises the CLI path: CSV and JSON reports land in
// the output file, the bytes are identical across worker counts (the
// CLI-level view of the engine's determinism guarantee), and a report
// that cannot be written is an error, not a truncated file and exit 0.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	emit := func(name string, jobs int, asJSON bool) string {
		t.Helper()
		o := testOptions(48, jobs)
		o.asJSON = asJSON
		o.out = filepath.Join(dir, name)
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(o.out)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s: empty report", name)
		}
		return string(b)
	}

	csv1 := emit("j1.csv", 1, false)
	csv4 := emit("j4.csv", 4, false)
	if csv1 != csv4 {
		t.Fatal("CSV differs between -jobs 1 and -jobs 4")
	}
	js1 := emit("j1.json", 1, true)
	js4 := emit("j4.json", 4, true)
	if js1 != js4 {
		t.Fatal("JSON differs between -jobs 1 and -jobs 4")
	}

	t.Run("unwritable", func(t *testing.T) {
		// /dev/full accepts the open and fails every write with ENOSPC.
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skipf("no /dev/full: %v", err)
		}
		o := testOptions(48, 2)
		o.out = "/dev/full"
		if err := run(o); err == nil {
			t.Fatal("-o /dev/full: run succeeded; a failed report write must be an error")
		}
	})
}

// TestValidate pins the up-front flag validation: every bad flag is a
// usage error before any simulation starts.
func TestValidate(t *testing.T) {
	ok := func(mutate func(*options)) *options {
		o := testOptions(10, 2)
		mutate(o)
		return o
	}
	if err := ok(func(o *options) {}).validate(); err != nil {
		t.Fatalf("good options rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*options)
		want   string
	}{
		{"zero n", func(o *options) { o.n = 0 }, "-n"},
		{"negative n", func(o *options) { o.n = -5 }, "-n"},
		{"zero scale", func(o *options) { o.scale = 0 }, "-scale"},
		{"big scale", func(o *options) { o.scale = 1.5 }, "-scale"},
		{"nan scale", func(o *options) { o.scale = nan() }, "-scale"},
		{"zero jobs", func(o *options) { o.jobs = 0 }, "-jobs"},
		{"connect and serve-http", func(o *options) { o.connectURL = "http://x"; o.serveHTTPAddr = ":2" }, "mutually exclusive"},
		{"serve-http and http", func(o *options) { o.serveHTTPAddr = ":1"; o.httpURL = "http://x" }, "mutually exclusive"},
		{"zero jobs on a worker", func(o *options) { o.connectURL = "http://x"; o.jobs = 0 }, "-jobs"},
		{"negative jobs on the daemon", func(o *options) { o.serveHTTPAddr = ":1"; o.storeDir = "d"; o.jobs = -1 }, "-jobs"},
		{"negative chunk", func(o *options) { o.chunk = -8 }, "-chunk"},
		{"serve-http without store", func(o *options) { o.serveHTTPAddr = ":1" }, "-store"},
		{"serve-http bad max-jobs", func(o *options) { o.serveHTTPAddr = ":1"; o.storeDir = "d"; o.maxJobs = 0 }, "-max-jobs"},
		{"store on a worker", func(o *options) { o.connectURL = "http://x"; o.storeDir = "d" }, "-store"},
		{"client verb without http", func(o *options) { o.submit = true }, "-http"},
		{"http without a verb", func(o *options) { o.httpURL = "http://x" }, "exactly one"},
		{"http with two verbs", func(o *options) { o.httpURL = "http://x"; o.submit = true; o.waitID = "j1" }, "exactly one"},
		{"store on a client wait", func(o *options) { o.httpURL = "http://x"; o.waitID = "j1"; o.storeDir = "d" }, "-store does not apply to -http"},
		{"store on a client submit", func(o *options) { o.httpURL = "http://x"; o.submit = true; o.storeDir = "d" }, "-store does not apply to -http"},
	}
	for _, tc := range cases {
		err := ok(tc.mutate).validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Worker mode ignores the report spec (it comes from the daemon),
	// so a worker with unset -n must validate.
	o := testOptions(0, 2)
	o.connectURL = "http://localhost:9"
	if err := o.validate(); err != nil {
		t.Fatalf("worker mode rejected unset -n: %v", err)
	}
	// Likewise the daemon (specs arrive over the API), with -jobs 0
	// leaving every chunk to remote workers, and the non-submit client
	// verbs (they carry only a job ID).
	o = testOptions(0, 0)
	o.serveHTTPAddr = ":0"
	o.storeDir = "d"
	o.maxJobs = 1
	if err := o.validate(); err != nil {
		t.Fatalf("daemon mode rejected unset -n and -jobs 0: %v", err)
	}
	o = testOptions(0, 2)
	o.httpURL = "http://x"
	o.waitID = "j000001"
	if err := o.validate(); err != nil {
		t.Fatalf("client wait mode rejected unset -n: %v", err)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestRunWithStoreResumes: the one-shot path with -store produces the
// bytes fleet.Run renders, and a second identical run is served from
// checkpoints (every chunk present in the store afterward).
func TestRunWithStoreResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := testOptions(48, 2)
	cfg.chunk = 8
	res, err := fleet.Run(context.Background(), cfg.fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	for i, name := range []string{"first.csv", "second.csv"} {
		o := testOptions(48, 2)
		o.chunk = 8
		o.storeDir = filepath.Join(dir, "store")
		o.out = filepath.Join(dir, name)
		if err := run(o); err != nil {
			t.Fatalf("store run %d: %v", i, err)
		}
		got, err := os.ReadFile(o.out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want.String() {
			t.Fatalf("store run %d differs from fleet.Run's report", i)
		}
	}

	// All 6 chunks must be checkpointed for the spec the runs used.
	requireCheckpointed(t, filepath.Join(dir, "store"), cfg)
}

// requireCheckpointed fails unless the store at dir holds every chunk
// of o's spec.
func requireCheckpointed(t *testing.T, dir string, o *options) {
	t.Helper()
	store, err := fleetsvc.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := fleet.NewJob(o.fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(context.Background(), job.SpecHash(), job.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	for ci, cp := range loaded {
		if cp == nil {
			t.Fatalf("chunk %d of %d not checkpointed", ci, len(loaded))
		}
	}
}

// TestServeHTTPDaemonEndToEnd boots the daemon on a loopback port,
// drives it with the CLI client's own plumbing (submit via the API,
// clientWait for the report), and checks the fetched report is
// byte-identical to the single-process run. Then a clean shutdown.
func TestServeHTTPDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	single := testOptions(48, 2)
	single.chunk = 8
	single.out = filepath.Join(dir, "single.csv")
	if err := run(single); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(single.out)
	if err != nil {
		t.Fatal(err)
	}

	o := testOptions(0, 2)
	o.serveHTTPAddr = "127.0.0.1:0"
	o.storeDir = filepath.Join(dir, "store")
	o.maxJobs = 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serveHTTP(ctx, o, ready) }()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	}

	c := &apiClient{base: "http://" + addr, hc: &http.Client{Timeout: 10 * time.Second}}
	body, err := json.Marshal(fleetsvc.SubmitRequest{N: 48, Seed: 7, Scale: 0.05, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var st fleetsvc.JobStatus
	if err := c.do("POST", "/api/v1/jobs", body, &st); err != nil {
		t.Fatalf("submit: %v", err)
	}

	wo := testOptions(0, 1)
	wo.out = filepath.Join(dir, "daemon.csv")
	if err := clientWait(c, wo, st.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	got, err := os.ReadFile(wo.out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("daemon-served report differs from single-process run:\n--- single ---\n%s--- daemon ---\n%s", want, got)
	}

	if err := clientStatus(c, st.ID); err != nil {
		t.Fatalf("status: %v", err)
	}
	if err := clientCancel(c, st.ID); err != nil { // terminal: must be a no-op, not an error
		t.Fatalf("cancel terminal job: %v", err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
}

// TestDaemonServerTimeouts pins the daemon's HTTP server limits: slow
// headers and idle keep-alives are cut off, but no write deadline is
// set, because one would truncate long-lived NDJSON job streams.
func TestDaemonServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v: slow-header clients can hold connections forever", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout %v: idle keep-alive connections are never closed", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut NDJSON streams of jobs that run longer", srv.WriteTimeout)
	}
}

// startDaemon runs the CLI daemon over store with -jobs jobs and
// returns its base URL once it listens, plus a stop function that shuts
// it down and returns its error.
func startDaemon(t *testing.T, store string, jobs int) (string, func() error) {
	t.Helper()
	o := testOptions(0, jobs)
	o.serveHTTPAddr = "127.0.0.1:0"
	o.storeDir = store
	o.maxJobs = 2
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- serveHTTP(ctx, o, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error { cancel(); return <-done }
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited before listening: %v", err)
		return "", nil
	}
}

// startWorkers runs n CLI workers (-connect url -jobs 1) and returns a
// function that stops them and returns their errors.
func startWorkers(url string, n int) (stop func() []error) {
	ctx, cancel := context.WithCancel(context.Background())
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wo := testOptions(0, 1)
			wo.connectURL = url
			errs[i] = connect(ctx, wo)
		}(i)
	}
	return func() []error {
		cancel()
		wg.Wait()
		return errs
	}
}

// submitAndWait submits n devices in chunks of chunk to the daemon at
// url, waits for the job with the CLI client, writes its report to out
// and returns the job's final status.
func submitAndWait(t *testing.T, url string, n, chunk int, out string) fleetsvc.JobStatus {
	t.Helper()
	c := &apiClient{base: url, hc: &http.Client{Timeout: 10 * time.Second}}
	body, err := json.Marshal(fleetsvc.SubmitRequest{N: n, Seed: 7, Scale: 0.05, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	var st fleetsvc.JobStatus
	if err := c.do("POST", "/api/v1/jobs", body, &st); err != nil {
		t.Fatalf("submit: %v", err)
	}
	wo := testOptions(0, 1)
	wo.out = out
	if err := clientWait(c, wo, st.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := c.do("GET", "/api/v1/jobs/"+st.ID, nil, &st); err != nil {
		t.Fatalf("status: %v", err)
	}
	return st
}

// requireSameFile fails unless the file at path holds exactly want.
func requireSameFile(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the single-process report:\n--- single ---\n%s--- got ---\n%s", path, want, got)
	}
}

// singleReport renders n devices in chunks of chunk through the
// one-shot CLI path.
func singleReport(t *testing.T, n, chunk int) []byte {
	t.Helper()
	o := testOptions(n, 2)
	o.chunk = chunk
	o.out = filepath.Join(t.TempDir(), "single.csv")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestServeConnectEndToEnd drives a CLI daemon that computes nothing
// itself (-jobs 0) and two CLI workers (-connect) over loopback: the
// job's report is byte-for-byte the single-process report, every chunk
// computed by the workers, and the workers stop cleanly.
func TestServeConnectEndToEnd(t *testing.T) {
	dir := t.TempDir()
	want := singleReport(t, 96, 0)

	url, stopDaemon := startDaemon(t, filepath.Join(dir, "store"), 0)
	stopWorkers := startWorkers(url, 2)
	st := submitAndWait(t, url, 96, 0, filepath.Join(dir, "remote.csv"))
	for i, err := range stopWorkers() {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := stopDaemon(); err != nil {
		t.Fatalf("daemon: %v", err)
	}
	requireSameFile(t, filepath.Join(dir, "remote.csv"), want)
	if st.Computed != st.Chunks || st.Loaded != 0 {
		t.Fatalf("job computed %d and loaded %d of %d chunks, want all computed", st.Computed, st.Loaded, st.Chunks)
	}
}

// TestServeStoreResumes: a job the workers finished checkpoints every
// chunk, and a second daemon over the same store, with its reports
// removed and no worker at all, folds the single-process report from
// the checkpoints alone.
func TestServeStoreResumes(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "store")
	want := singleReport(t, 96, 8)

	url, stopDaemon := startDaemon(t, store, 0)
	stopWorkers := startWorkers(url, 2)
	submitAndWait(t, url, 96, 8, filepath.Join(dir, "first.csv"))
	for i, err := range stopWorkers() {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := stopDaemon(); err != nil {
		t.Fatalf("first daemon: %v", err)
	}
	requireSameFile(t, filepath.Join(dir, "first.csv"), want)
	o := testOptions(96, 2)
	o.chunk = 8
	requireCheckpointed(t, store, o)
	if err := os.RemoveAll(filepath.Join(store, "reports")); err != nil {
		t.Fatal(err)
	}

	url, stopDaemon = startDaemon(t, store, 0)
	defer stopDaemon()
	st := submitAndWait(t, url, 96, 8, filepath.Join(dir, "second.csv"))
	requireSameFile(t, filepath.Join(dir, "second.csv"), want)
	if st.Loaded != st.Chunks || st.Computed != 0 {
		t.Fatalf("second job loaded %d and computed %d of %d chunks, want all loaded", st.Loaded, st.Computed, st.Chunks)
	}
}
