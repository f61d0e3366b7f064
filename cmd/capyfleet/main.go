// Capyfleet simulates a fleet of independent Capybara devices —
// heterogeneous application/variant/environment cohorts, one seeded
// Poisson schedule per device — and prints fleet-level statistics.
//
// Usage:
//
//	capyfleet -n 10000 [-seed S] [-jobs N] [-scale F] [-json] [-o FILE]
//	          [-cpuprofile F] [-memprofile F]
//
// Sharded (multi-process) mode splits one run across machines:
//
//	capyfleet -serve :9009 -n 1000000          # coordinator: leases chunks, folds the report
//	capyfleet -connect host:9009 [-jobs N]     # worker: runs leased chunks, streams partials
//
// Daemon (fleet-as-a-service) mode runs a persistent job server whose
// queue and chunk checkpoints survive a kill -9:
//
//	capyfleet -serve-http :9191 -store DIR [-max-jobs N]   # persistent daemon
//	capyfleet -http URL -submit -n 10000 [-seed S]         # queue a job, print its ID
//	capyfleet -http URL -wait ID [-o FILE]                 # block until done, fetch the report
//	capyfleet -http URL -status ID                         # one status snapshot
//	capyfleet -http URL -cancel ID                         # cancel a queued/running job
//
// -store also applies to the one-shot and -serve modes: completed
// chunks are checkpointed there and reloaded on a rerun, so an
// interrupted run resumes instead of starting over, and identical specs
// share work across runs.
//
// The report (CSV by default, -json for JSON) is a pure function of
// (-n, -seed, -scale, -chunk): it is byte-identical at any -jobs — and
// in sharded or daemon mode at any worker count, topology, failure
// schedule, or crash/resume history. Throughput and lease diagnostics
// go to stderr — they depend on scheduling and wall clock, so they are
// deliberately not part of the report.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"time"

	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
	"capybara/internal/prof"
	"capybara/internal/shard"
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

	serveAddr    string
	connectAddr  string
	leaseTimeout time.Duration
	leaseRetries int
	dialRetry    time.Duration

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
	for _, m := range []string{o.serveAddr, o.connectAddr, o.serveHTTPAddr, o.httpURL} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-serve, -connect, -serve-http, and -http are mutually exclusive")
	}
	if o.jobs < 1 {
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
		if !o.submit {
			return nil // wait/status/cancel carry no job spec to validate
		}
	}
	if o.connectAddr != "" {
		// Worker mode: the job spec (n, seed, scale) arrives from the
		// coordinator; only -jobs and -dial-retry apply.
		if o.storeDir != "" {
			return fmt.Errorf("-store does not apply to -connect (the coordinator owns checkpoints)")
		}
		if o.dialRetry < 0 {
			return fmt.Errorf("-dial-retry must be >= 0, got %v", o.dialRetry)
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
	if o.serveAddr != "" {
		if o.leaseTimeout <= 0 {
			return fmt.Errorf("-lease-timeout must be positive, got %v", o.leaseTimeout)
		}
		if o.leaseRetries < 1 {
			return fmt.Errorf("-lease-retries must be >= 1, got %d", o.leaseRetries)
		}
	}
	return nil
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 1000, "number of devices")
	flag.Int64Var(&o.seed, "seed", 1, "fleet seed")
	flag.IntVar(&o.jobs, "jobs", runtime.GOMAXPROCS(0), "parallel workers (1 forces the serial path)")
	flag.Float64Var(&o.scale, "scale", 1.0, "event-count scale per device in (0, 1]")
	flag.BoolVar(&o.asJSON, "json", false, "emit JSON instead of CSV")
	flag.StringVar(&o.out, "o", "", "write the report to this file instead of stdout")
	flag.IntVar(&o.chunk, "chunk", 0, "devices per chunk — the checkpoint/lease granularity (0 = default)")
	flag.StringVar(&o.serveAddr, "serve", "", "run as shard coordinator listening on this address (host:port); workers join with -connect")
	flag.StringVar(&o.connectAddr, "connect", "", "run as shard worker connecting to a coordinator at this address")
	flag.DurationVar(&o.leaseTimeout, "lease-timeout", time.Minute, "coordinator: chunk lease deadline before re-leasing to another worker")
	flag.IntVar(&o.leaseRetries, "lease-retries", 3, "coordinator: lease attempts per chunk before the run fails hard")
	flag.DurationVar(&o.dialRetry, "dial-retry", 10*time.Second, "worker: keep retrying the initial connection this long")
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
	case o.connectAddr != "":
		err = runWorker(&o)
	case o.serveAddr != "":
		err = runCoordinator(&o)
	default:
		err = run(&o)
	}
	stop()
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

// run executes the whole fleet in this process. With -store, completed
// chunks are reloaded from and checkpointed to the store, so an
// interrupted run resumes where it left off (and an identical later
// spec reuses the work) with byte-identical output.
func run(o *options) error {
	if o.storeDir == "" {
		res, err := fleet.Run(context.Background(), o.fleetConfig())
		if err != nil {
			return err
		}
		return writeReport(o, res)
	}
	store, err := fleetsvc.Open(o.storeDir)
	if err != nil {
		return err
	}
	res, stats, err := fleetsvc.RunWithStore(context.Background(), store, o.fleetConfig(), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "capyfleet: store %s: %d/%d chunks loaded, %d computed\n",
		o.storeDir, stats.Loaded, stats.Chunks, stats.Computed)
	return writeReport(o, res)
}

// loadCompleted reloads a spec's checkpointed chunks from the store.
// Corrupt entries are quarantined by Get and simply skipped — they land
// back on the to-compute side.
func loadCompleted(store *fleetsvc.Store, hash string) ([]*fleet.ChunkPartial, error) {
	indices, err := store.Completed(hash)
	if err != nil {
		return nil, err
	}
	var completed []*fleet.ChunkPartial
	for _, ci := range indices {
		cp, err := store.Get(hash, ci)
		if err != nil {
			continue // missing or quarantined: recompute it
		}
		completed = append(completed, cp)
	}
	return completed, nil
}

// runCoordinator listens for shard workers, leases them chunks, and
// folds the identical report the in-process path would produce. With
// -store, already-checkpointed chunks are never leased and every newly
// completed chunk is checkpointed before it folds.
func runCoordinator(o *options) error {
	opt := shard.Options{
		LeaseTimeout: o.leaseTimeout,
		MaxAttempts:  o.leaseRetries,
		Progress:     os.Stderr,
	}
	if o.storeDir != "" {
		store, err := fleetsvc.Open(o.storeDir)
		if err != nil {
			return err
		}
		job, err := fleet.NewJob(o.fleetConfig())
		if err != nil {
			return err
		}
		hash := job.SpecHash()
		completed, err := loadCompleted(store, hash)
		if err != nil {
			return err
		}
		opt.Completed = completed
		opt.OnChunk = func(cp *fleet.ChunkPartial) error {
			return store.Put(hash, cp.Chunk, cp)
		}
		fmt.Fprintf(os.Stderr, "capyfleet: store %s: %d/%d chunks already checkpointed\n",
			o.storeDir, len(completed), job.NumChunks())
	}
	ln, err := net.Listen("tcp", o.serveAddr)
	if err != nil {
		return err
	}
	// The resolved address matters when -serve used port 0.
	fmt.Fprintf(os.Stderr, "capyfleet: coordinating on %s (workers: capyfleet -connect %s)\n",
		ln.Addr(), ln.Addr())
	res, err := shard.Serve(context.Background(), ln, o.fleetConfig(), opt)
	if err != nil {
		return err
	}
	return writeReport(o, res)
}

// runWorker joins a coordinator and runs leased chunks until done.
func runWorker(o *options) error {
	fmt.Fprintf(os.Stderr, "capyfleet: worker connecting to %s (%d jobs)\n", o.connectAddr, o.jobs)
	err := shard.Work(context.Background(), o.connectAddr, o.jobs, shard.WorkerOptions{DialRetry: o.dialRetry})
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "capyfleet: worker done")
	return nil
}
