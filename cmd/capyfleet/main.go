// Capyfleet simulates a fleet of independent Capybara devices —
// heterogeneous application/variant/environment cohorts, one seeded
// Poisson schedule per device — and prints fleet-level statistics.
//
// Usage:
//
//	capyfleet -n 10000 [-seed S] [-jobs N] [-scale F] [-json] [-o FILE]
//	          [-cpuprofile F] [-memprofile F]
//
// Daemon (fleet-as-a-service) mode runs a persistent job server whose
// queue and chunk checkpoints survive a kill -9, and remote workers
// spread its jobs across machines:
//
//	capyfleet -serve-http :9191 -store DIR [-max-jobs N] [-jobs N]   # persistent daemon; -jobs 0 computes nothing itself
//	capyfleet -connect URL [-jobs N]                                 # remote worker: leases the daemon's chunks
//	capyfleet -http URL -submit -n 10000 [-seed S]                   # queue a job, print its ID
//	capyfleet -http URL -wait ID [-o FILE]                           # block until done, fetch the report
//	capyfleet -http URL -status ID                                   # one status snapshot
//	capyfleet -http URL -cancel ID                                   # cancel a queued/running job
//
// -store also applies to the one-shot mode: completed chunks are
// checkpointed there and reloaded on a rerun, so an interrupted run
// resumes instead of starting over, and identical specs share work
// across runs.
//
// The report (CSV by default, -json for JSON) is a pure function of
// (-n, -seed, -scale, -chunk): it is byte-identical at any -jobs — and
// in daemon mode at any mix of local and remote workers, failure
// schedule, or crash/resume history. Throughput diagnostics go to
// stderr — they depend on scheduling and wall clock, so they are
// deliberately not part of the report.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
	"capybara/internal/prof"
)

// options is the parsed and validated command line.
type options struct {
	n      int
	seed   int64
	jobs   int
	scale  float64
	chunk  int
	asJSON bool
	out    string

	connectURL string

	serveHTTPAddr string
	storeDir      string
	maxJobs       int

	httpURL  string
	submit   bool
	waitID   string
	statusID string
	cancelID string

	cpuProfile string
	memProfile string
}

// clientActions counts how many of the -http client verbs were given.
func (o *options) clientActions() int {
	n := 0
	if o.submit {
		n++
	}
	for _, id := range []string{o.waitID, o.statusID, o.cancelID} {
		if id != "" {
			n++
		}
	}
	return n
}

// validate rejects bad flag combinations up front with a usage error,
// instead of panicking or silently misbehaving deep in the run.
func (o *options) validate() error {
	modes := 0
	for _, m := range []string{o.connectURL, o.serveHTTPAddr, o.httpURL} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-connect, -serve-http, and -http are mutually exclusive")
	}
	if o.serveHTTPAddr != "" && o.jobs < 0 {
		return fmt.Errorf("-jobs must be >= 0 for -serve-http, got %d", o.jobs)
	}
	if o.serveHTTPAddr == "" && o.jobs < 1 {
		return fmt.Errorf("-jobs must be >= 1, got %d", o.jobs)
	}
	if o.chunk < 0 {
		return fmt.Errorf("-chunk must be >= 0, got %d", o.chunk)
	}
	if o.httpURL == "" && o.clientActions() > 0 {
		return fmt.Errorf("-submit, -wait, -status, and -cancel require -http URL")
	}
	if o.httpURL != "" {
		if o.clientActions() != 1 {
			return fmt.Errorf("-http requires exactly one of -submit, -wait, -status, -cancel")
		}
		if o.storeDir != "" {
			return fmt.Errorf("-store does not apply to -http (the daemon owns checkpoints)")
		}
		if !o.submit {
			return nil // wait/status/cancel carry no job spec to validate
		}
	}
	if o.connectURL != "" {
		// Worker mode: job specs arrive from the daemon; only -jobs
		// applies.
		if o.storeDir != "" {
			return fmt.Errorf("-store does not apply to -connect (the daemon owns checkpoints)")
		}
		return nil
	}
	if o.serveHTTPAddr != "" {
		if o.storeDir == "" {
			return fmt.Errorf("-serve-http requires -store (the daemon's queue and checkpoints live there)")
		}
		if o.maxJobs < 1 {
			return fmt.Errorf("-max-jobs must be >= 1, got %d", o.maxJobs)
		}
		return nil // job specs arrive over the API, not the command line
	}
	if o.n < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", o.n)
	}
	if !(o.scale > 0 && o.scale <= 1) {
		return fmt.Errorf("-scale must be in (0, 1], got %g", o.scale)
	}
	return nil
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 1000, "number of devices")
	flag.Int64Var(&o.seed, "seed", 1, "fleet seed")
	flag.IntVar(&o.jobs, "jobs", runtime.GOMAXPROCS(0), "parallel workers (1 forces the serial path; 0 with -serve-http leaves every chunk to -connect workers)")
	flag.Float64Var(&o.scale, "scale", 1.0, "event-count scale per device in (0, 1]")
	flag.BoolVar(&o.asJSON, "json", false, "emit JSON instead of CSV")
	flag.StringVar(&o.out, "o", "", "write the report to this file instead of stdout")
	flag.IntVar(&o.chunk, "chunk", 0, "devices per chunk — the checkpoint/lease granularity (0 = default)")
	flag.StringVar(&o.connectURL, "connect", "", "run as a remote worker leasing chunks from the daemon at this base URL (e.g. http://host:9191)")
	flag.StringVar(&o.serveHTTPAddr, "serve-http", "", "run as a persistent fleet daemon serving the job API on this address (requires -store)")
	flag.StringVar(&o.storeDir, "store", "", "chunk checkpoint store directory: completed chunks persist here and reruns resume from them")
	flag.IntVar(&o.maxJobs, "max-jobs", 2, "daemon: jobs running concurrently (queued jobs start as slots free)")
	flag.StringVar(&o.httpURL, "http", "", "client mode: daemon base URL (e.g. http://localhost:9191); combine with -submit/-wait/-status/-cancel")
	flag.BoolVar(&o.submit, "submit", false, "client: submit a job from -n/-seed/-scale/-chunk and print its ID")
	flag.StringVar(&o.waitID, "wait", "", "client: block until this job finishes, then fetch its report")
	flag.StringVar(&o.statusID, "status", "", "client: print this job's status as JSON")
	flag.StringVar(&o.cancelID, "cancel", "", "client: cancel this job")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if err := o.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "capyfleet: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	stop, err := prof.StartCPU(o.cpuProfile)
	if err != nil {
		fail(err)
	}
	switch {
	case o.httpURL != "":
		err = runClient(&o)
	case o.serveHTTPAddr != "":
		err = runServeHTTP(&o)
	case o.connectURL != "":
		err = runWorker(&o)
	default:
		err = run(&o)
	}
	if serr := stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = prof.WriteHeap(o.memProfile)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "capyfleet:", err)
	os.Exit(1)
}

func (o *options) fleetConfig() fleet.Config {
	return fleet.Config{
		N:         o.n,
		Seed:      o.seed,
		Jobs:      o.jobs,
		Scale:     o.scale,
		ChunkSize: o.chunk,
	}
}

// writeReport renders res to -o (or stdout) and its diagnostics to
// stderr.
func writeReport(o *options, res *fleet.Result) error {
	render := res.WriteCSV
	if o.asJSON {
		render = res.WriteJSON
	}
	if err := writeOutput(o.out, render); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, res.Diagnostics())
	return nil
}

// writeOutput hands write the file at path, or stdout when path is
// empty. The file's Close error is returned: it is where a failed
// write-back (NFS, quota) surfaces, and dropping it would exit 0 with a
// truncated report.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkpoints opens -store, when given, for job: it returns the chunks
// the store already holds and a done callback that checkpoints each
// newly computed chunk before it counts, in the shapes fleet.Job.Run
// takes. Without -store both are nil: nothing loaded, nothing
// checkpointed.
func checkpoints(o *options, job *fleet.Job) ([]*fleet.ChunkPartial, func(*fleet.ChunkPartial) error, error) {
	if o.storeDir == "" {
		return nil, nil, nil
	}
	store, err := fleetsvc.Open(o.storeDir)
	if err != nil {
		return nil, nil, err
	}
	hash := job.SpecHash()
	have, err := store.Load(context.Background(), hash, job.NumChunks())
	if err != nil {
		return nil, nil, err
	}
	loaded := 0
	for _, cp := range have {
		if cp != nil {
			loaded++
		}
	}
	fmt.Fprintf(os.Stderr, "capyfleet: store %s: %d/%d chunks already checkpointed\n",
		o.storeDir, loaded, job.NumChunks())
	return have, func(cp *fleet.ChunkPartial) error {
		return store.Put(hash, cp.Chunk, cp)
	}, nil
}

// run executes the whole fleet in this process. With -store, completed
// chunks are reloaded from and checkpointed to the store, so an
// interrupted run resumes where it left off (and an identical later
// spec reuses the work) with byte-identical output.
func run(o *options) error {
	job, err := fleet.NewJob(o.fleetConfig())
	if err != nil {
		return err
	}
	have, done, err := checkpoints(o, job)
	if err != nil {
		return err
	}
	res, err := job.Run(context.Background(), have, done)
	if err != nil {
		return err
	}
	return writeReport(o, res)
}

// runWorker leases and computes the daemon's chunks until SIGINT or
// SIGTERM.
func runWorker(o *options) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return connect(ctx, o)
}

// connect runs a remote worker for the daemon at -connect until ctx
// ends.
func connect(ctx context.Context, o *options) error {
	fmt.Fprintf(os.Stderr, "capyfleet: worker leasing from %s (%d jobs)\n", o.connectURL, o.jobs)
	if err := fleetsvc.Work(ctx, o.connectURL, o.jobs); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "capyfleet: worker stopped")
	return nil
}
