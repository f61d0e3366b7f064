package main

import (
	"context"
	"encoding/json"
	"net"
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
		o.leaseTimeout = time.Minute
		o.leaseRetries = 3
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
		{"serve and connect", func(o *options) { o.serveAddr = ":1"; o.connectAddr = ":2" }, "mutually exclusive"},
		{"serve and serve-http", func(o *options) { o.serveAddr = ":1"; o.serveHTTPAddr = ":2" }, "mutually exclusive"},
		{"serve-http and http", func(o *options) { o.serveHTTPAddr = ":1"; o.httpURL = "http://x" }, "mutually exclusive"},
		{"bad lease timeout", func(o *options) { o.serveAddr = ":1"; o.leaseTimeout = 0 }, "-lease-timeout"},
		{"bad lease retries", func(o *options) { o.serveAddr = ":1"; o.leaseRetries = 0 }, "-lease-retries"},
		{"negative dial retry", func(o *options) { o.connectAddr = ":1"; o.dialRetry = -time.Second }, "-dial-retry"},
		{"negative chunk", func(o *options) { o.chunk = -8 }, "-chunk"},
		{"serve-http without store", func(o *options) { o.serveHTTPAddr = ":1" }, "-store"},
		{"serve-http bad max-jobs", func(o *options) { o.serveHTTPAddr = ":1"; o.storeDir = "d"; o.maxJobs = 0 }, "-max-jobs"},
		{"store on a worker", func(o *options) { o.connectAddr = ":1"; o.storeDir = "d" }, "-store"},
		{"client verb without http", func(o *options) { o.submit = true }, "-http"},
		{"http without a verb", func(o *options) { o.httpURL = "http://x" }, "exactly one"},
		{"http with two verbs", func(o *options) { o.httpURL = "http://x"; o.submit = true; o.waitID = "j1" }, "exactly one"},
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
	// Worker mode ignores the report spec (it comes from the
	// coordinator), so a worker with unset -n must validate.
	o := testOptions(0, 2)
	o.connectAddr = "localhost:9"
	if err := o.validate(); err != nil {
		t.Fatalf("worker mode rejected unset -n: %v", err)
	}
	// Likewise the daemon (specs arrive over the API) and the non-submit
	// client verbs (they carry only a job ID).
	o = testOptions(0, 2)
	o.serveHTTPAddr = ":0"
	o.storeDir = "d"
	o.maxJobs = 1
	if err := o.validate(); err != nil {
		t.Fatalf("daemon mode rejected unset -n: %v", err)
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
// same bytes as the storeless path, and a second identical run is
// served from checkpoints (every chunk present in the store afterward).
func TestRunWithStoreResumes(t *testing.T) {
	dir := t.TempDir()
	plain := testOptions(48, 2)
	plain.chunk = 8
	plain.out = filepath.Join(dir, "plain.csv")
	if err := run(plain); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(plain.out)
	if err != nil {
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
		if string(got) != string(want) {
			t.Fatalf("store run %d differs from the storeless report", i)
		}
	}

	// All 6 chunks must be checkpointed for the spec the runs used.
	store, err := fleetsvc.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testOptions(48, 2)
	cfg.chunk = 8
	job, err := fleet.NewJob(cfg.fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	completed, err := store.Completed(job.SpecHash())
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != job.NumChunks() {
		t.Fatalf("store holds %d chunks, want %d", len(completed), job.NumChunks())
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

// TestServeConnectEndToEnd drives the CLI coordinator and two CLI
// workers over loopback and asserts the sharded report is byte-for-byte
// the single-process report.
func TestServeConnectEndToEnd(t *testing.T) {
	dir := t.TempDir()

	single := testOptions(96, 2)
	single.out = filepath.Join(dir, "single.csv")
	if err := run(single); err != nil {
		t.Fatal(err)
	}

	// Reserve a port for the coordinator.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	co := testOptions(96, 2)
	co.serveAddr = addr
	co.out = filepath.Join(dir, "sharded.csv")
	co.leaseTimeout = time.Minute
	co.leaseRetries = 3

	var wg sync.WaitGroup
	var serveErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = runCoordinator(co)
	}()
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wo := testOptions(0, 1)
			wo.connectAddr = addr
			wo.dialRetry = 10 * time.Second
			workerErrs[i] = runWorker(wo)
		}(i)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("coordinator: %v", serveErr)
	}
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	want, err := os.ReadFile(single.out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(co.out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || string(got) != string(want) {
		t.Fatalf("sharded CLI report differs from single-process report:\n--- single ---\n%s--- sharded ---\n%s", want, got)
	}
}
