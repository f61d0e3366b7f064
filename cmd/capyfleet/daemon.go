package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"capybara/internal/fleetsvc"
)

// runServeHTTP runs the persistent fleet daemon until SIGINT/SIGTERM.
// Everything that matters lives in -store: the job journal (one
// append-only log, jobs/journal.log, that a restart replays after any
// per-job journal files older daemons left), every chunk checkpoint,
// and finished reports. A kill -9 loses nothing a restart cannot
// resume: an append it cut short is dropped on restart.
func runServeHTTP(o *options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveHTTP(ctx, o, nil)
}

// Daemon server timeouts. ReadHeaderTimeout keeps a client that opens a
// connection and trickles its request headers from holding it forever;
// IdleTimeout closes keep-alive connections nobody is using. There is
// deliberately no WriteTimeout: the NDJSON stream endpoint writes for as
// long as its job runs, and a write deadline would cut the stream.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in a server with the
// timeouts above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveHTTP opens the store, resumes any jobs a previous daemon left
// unfinished, and serves the job API on o.serveHTTPAddr until ctx is
// canceled. ready, when non-nil, receives the resolved listen address
// (for tests and scripts that bind port 0).
func serveHTTP(ctx context.Context, o *options, ready chan<- string) error {
	store, err := fleetsvc.Open(o.storeDir)
	if err != nil {
		return err
	}
	svc, err := fleetsvc.NewService(fleetsvc.ServiceConfig{
		Store:         store,
		Jobs:          o.jobs,
		MaxConcurrent: o.maxJobs,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.serveHTTPAddr)
	if err != nil {
		svc.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "capyfleet: serving HTTP on %s (store %s, %d concurrent jobs)\n",
		ln.Addr(), o.storeDir, o.maxJobs)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	srv := newHTTPServer(svc.Handler())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Graceful stop: stop accepting, let in-flight requests drain
		// briefly, then stop the service — running jobs are interrupted
		// and stay journaled as queued, the resume marker a successor
		// daemon picks up.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutCtx)
		svc.Close()
		fmt.Fprintln(os.Stderr, "capyfleet: daemon stopped (unfinished jobs will resume on restart)")
		return nil
	case err := <-errc:
		svc.Close()
		return fmt.Errorf("capyfleet: daemon: %w", err)
	}
}
