package shard

import (
	"context"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"capybara/internal/fleet"
)

// Options tunes the coordinator's lease and progress behavior. The zero
// value is usable: every field has a default.
type Options struct {
	// LeaseTimeout is how long a worker holds a chunk before the
	// coordinator re-leases it (0 = 1 minute). It bounds how long a
	// wedged worker can stall the run; chunks finish in well under a
	// second each at default chunk size, so the default is generous.
	LeaseTimeout time.Duration
	// MaxAttempts is how many times a chunk may be leased before the
	// run fails hard (0 = 3). Attempts count lease grants: a chunk that
	// times out or dies MaxAttempts times is presumed to crash workers
	// deterministically, and retrying forever would hide it.
	MaxAttempts int
	// RetryBackoff delays a failed chunk's re-lease, doubling per prior
	// attempt and clamped at maxRetryBackoff (0 = 250ms). It keeps a
	// crash-looping chunk from hot-cycling through the worker pool.
	RetryBackoff time.Duration
	// Progress, when non-nil, receives a line of chunk/worker/
	// throughput state every ProgressEvery (0 = 2s).
	Progress      io.Writer
	ProgressEvery time.Duration
	// Completed pre-seeds chunks a previous run already computed (e.g.
	// reloaded from a checkpoint store): they are marked done before any
	// lease is granted, so workers only ever see the missing chunks.
	// Each partial must belong to this job — chunk index in range,
	// cohort count matching the grid — or Serve fails before listening.
	// Pre-seeded chunks are not passed to OnChunk.
	Completed []*fleet.ChunkPartial
	// OnChunk, when non-nil, observes every newly completed chunk
	// before it is folded — the coordinator's checkpoint hook. A non-nil
	// error fails the run (a checkpoint that cannot be written is a
	// durability loss, not a warning). Calls may be concurrent (one per
	// worker connection), and a duplicate-result race can deliver the
	// same chunk twice; both are harmless against an idempotent
	// content-addressed store.
	OnChunk func(*fleet.ChunkPartial) error
}

// ChunkError is the failure Serve returns when chunks exhaust their
// lease attempts: Failed lists every exhausted chunk index (sorted), so
// a caller that checkpointed the completed chunks knows exactly what a
// resumed run still owes. Cause is the first exhausted chunk's last
// lease failure.
type ChunkError struct {
	Failed []int
	Cause  error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("shard: chunk(s) %v failed after exhausting lease attempts: %v", e.Failed, e.Cause)
}

func (e *ChunkError) Unwrap() error { return e.Cause }

func (o Options) withDefaults() Options {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 250 * time.Millisecond
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 2 * time.Second
	}
	return o
}

// chunk lease states.
const (
	chunkPending uint8 = iota
	chunkLeased
	chunkDone
)

type chunkState struct {
	status    uint8
	attempts  int       // lease grants so far
	owner     int64     // conn id while leased
	deadline  time.Time // lease expiry while leased
	notBefore time.Time // backoff gate while pending after a failure
}

// coordinator is the shared scheduler state. Everything below mu is
// guarded by it; cond wakes lease feeders when chunks become eligible
// (completion, failure requeue, backoff expiry, shutdown).
type coordinator struct {
	job *fleet.Job
	opt Options

	mu       sync.Mutex
	cond     *sync.Cond
	chunks   []chunkState
	partials []*fleet.ChunkPartial
	doneCh   chan struct{} // closed when the run completes or fails
	nextID   int64

	remaining int   // chunks not yet done
	exhausted []int // chunks that spent every lease attempt
	retries   int   // re-lease events (diagnostic)
	workers   int   // currently handshaken workers
	peak      int   // max concurrent workers (diagnostic)
	devices   int   // devices in completed chunks (progress)
	fatal     error
	finished  bool // remaining hit 0 or fatal set; stop leasing
}

// Serve coordinates a sharded fleet run on ln: it ships the job spec to
// every connecting worker, leases chunks with deadlines, re-leases on
// worker failure, folds the partials in chunk-index order, and returns
// a Result whose report is byte-identical to fleet.Run with the same
// Config. It blocks until the run completes, a chunk exhausts its lease
// attempts, or ctx is canceled. The listener is closed on return.
func Serve(ctx context.Context, ln net.Listener, cfg fleet.Config, opt Options) (*fleet.Result, error) {
	job, err := fleet.NewJob(cfg)
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		job:       job,
		opt:       opt.withDefaults(),
		chunks:    make([]chunkState, job.NumChunks()),
		partials:  make([]*fleet.ChunkPartial, job.NumChunks()),
		doneCh:    make(chan struct{}),
		remaining: job.NumChunks(),
	}
	c.cond = sync.NewCond(&c.mu)
	start := time.Now()

	// Pre-seed checkpointed chunks: mark them done before any worker can
	// be leased one. Validation is strict — a partial from the wrong job
	// would poison the fold only after all the remaining work was done.
	for _, cp := range c.opt.Completed {
		if cp == nil {
			continue
		}
		if cp.Chunk < 0 || cp.Chunk >= job.NumChunks() {
			return nil, fmt.Errorf("shard: completed partial for chunk %d out of range [0, %d)", cp.Chunk, job.NumChunks())
		}
		if len(cp.Cohorts) != len(job.Cohorts()) {
			return nil, fmt.Errorf("shard: completed partial for chunk %d has %d cohorts, want %d", cp.Chunk, len(cp.Cohorts), len(job.Cohorts()))
		}
		if c.chunks[cp.Chunk].status == chunkDone {
			continue
		}
		c.chunks[cp.Chunk].status = chunkDone
		c.partials[cp.Chunk] = cp
		c.remaining--
		lo, hi := job.ChunkBounds(cp.Chunk)
		c.devices += hi - lo
	}

	stopCtx := context.AfterFunc(ctx, func() { c.fail(ctx.Err()) })
	defer stopCtx()

	// Background goroutines: the accept loop (which spawns one handler
	// per connection), the lease monitor, and the progress reporter.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var handlers sync.WaitGroup
	handlers.Add(1)
	go func() {
		defer handlers.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed (shutdown) or fatal accept error
			}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				c.serveWorker(conn)
			}()
		}
	}()
	bg.Add(1)
	go func() {
		defer bg.Done()
		c.monitor(stop)
	}()
	if c.opt.Progress != nil {
		bg.Add(1)
		go func() {
			defer bg.Done()
			c.progress(stop, start)
		}()
	}

	// Wait for completion or failure.
	c.mu.Lock()
	for c.remaining > 0 && c.fatal == nil {
		c.cond.Wait()
	}
	c.finished = true
	fatal := c.fatal
	c.mu.Unlock()
	c.cond.Broadcast() // wake feeders parked waiting for eligible chunks
	close(c.doneCh)    // wake feeders parked waiting for lease credits

	// Every feeder sends its worker a farewell (done, or the fatal
	// error) and closes the connection, which unwinds the paired read
	// loop; handshake stragglers are bounded by their deadline. The
	// listener close stops new connections and the accept loop.
	ln.Close()
	close(stop)
	bg.Wait()
	handlers.Wait()

	if fatal != nil {
		return nil, fatal
	}
	res, err := c.job.Fold(c.partials)
	if err != nil {
		return nil, err
	}
	res.Workers = c.peak
	res.Elapsed = time.Since(start)
	if secs := res.Elapsed.Seconds(); secs > 0 {
		res.DevicesSec = float64(cfg.N) / secs
	}
	if c.opt.Progress != nil {
		fmt.Fprintf(c.opt.Progress, "shard: complete — %d chunks on %d worker(s), %d re-leased\n",
			len(c.chunks), c.peak, c.retries)
	}
	return res, nil
}

// fail records a fatal error (first one wins) unless the run already
// completed, and wakes everyone.
func (c *coordinator) fail(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.fatal == nil && c.remaining > 0 {
		c.fatal = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// monitor enforces lease deadlines and backoff gates: every tick it
// requeues expired leases and wakes feeders (a pending chunk's backoff
// may have elapsed with no other event to signal it).
func (c *coordinator) monitor(stop <-chan struct{}) {
	tick := c.opt.LeaseTimeout / 8
	if tick > 100*time.Millisecond {
		tick = 100 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			for i := range c.chunks {
				st := &c.chunks[i]
				if st.status == chunkLeased && now.After(st.deadline) {
					c.requeueLocked(i, fmt.Errorf("lease expired after %v", c.opt.LeaseTimeout))
				}
			}
			c.mu.Unlock()
			c.cond.Broadcast()
		}
	}
}

// progress reports chunk/worker/throughput state on the Progress writer.
func (c *coordinator) progress(stop <-chan struct{}, start time.Time) {
	t := time.NewTicker(c.opt.ProgressEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			c.mu.Lock()
			done := len(c.chunks) - c.remaining
			retries, workers, devices := c.retries, c.workers, c.devices
			c.mu.Unlock()
			rate := float64(devices) / time.Since(start).Seconds()
			fmt.Fprintf(c.opt.Progress, "shard: %d/%d chunks, %d worker(s), %d re-leased, %.0f devices/sec\n",
				done, len(c.chunks), workers, retries, rate)
		}
	}
}

// requeueLocked returns a leased chunk to the pending queue after a
// failure, with backoff, or fails the run if its attempts are spent.
// Caller holds mu.
func (c *coordinator) requeueLocked(ci int, cause error) {
	st := &c.chunks[ci]
	if st.status != chunkLeased {
		return
	}
	st.status = chunkPending
	st.owner = 0
	c.retries++
	if st.attempts >= c.opt.MaxAttempts {
		c.exhausted = append(c.exhausted, ci)
		// Fail hard, surfacing every exhausted chunk so a caller that
		// checkpointed the completed ones (Options.OnChunk) knows what a
		// resumed run still owes. The error value is replaced, never
		// mutated — snapshots other goroutines hold stay immutable.
		if ce, ok := c.fatal.(*ChunkError); c.fatal == nil || ok {
			failed := append([]int(nil), c.exhausted...)
			sort.Ints(failed)
			first := cause
			if ok {
				first = ce.Cause
			}
			c.fatal = &ChunkError{Failed: failed, Cause: first}
		}
		c.cond.Broadcast()
		return
	}
	st.notBefore = time.Now().Add(retryDelay(c.opt.RetryBackoff, st.attempts))
}

// maxRetryBackoff caps the exponential lease-retry backoff: past it,
// longer waits no longer protect anything (the lease timeout itself
// bounds how stale a worker can be) and only delay the run.
const maxRetryBackoff = 2 * time.Minute

// retryDelay returns the backoff before re-leasing a chunk that failed
// `attempts` times: base doubled per prior attempt, clamped at
// maxRetryBackoff. The doubling is a bounded loop, not a shift — a
// shift by attempts-1 overflows time.Duration's int64 around attempt 40
// with the default base, silently producing a negative delay (backoff
// vanishes) or a far-future notBefore (the chunk is never re-leased and
// the run stalls). A base already at or above the cap is honored
// unchanged: the cap bounds growth, it never shortens a configured
// backoff.
func retryDelay(base time.Duration, attempts int) time.Duration {
	d := base
	for i := 1; i < attempts && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff && base < maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d
}

// releaseWorker requeues every chunk the dead worker still holds.
func (c *coordinator) releaseWorker(id int64, cause error) {
	c.mu.Lock()
	for i := range c.chunks {
		if c.chunks[i].status == chunkLeased && c.chunks[i].owner == id {
			c.requeueLocked(i, cause)
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// leaseOutcome is nextLease's verdict when no lease is granted.
type leaseOutcome int

const (
	leaseGranted leaseOutcome = iota
	leaseRunDone
	leaseRunFailed
	leaseWorkerDead
)

// nextLease blocks until a chunk is eligible for worker id (granting
// it), the run completes, the run fails, or the worker's connection is
// declared dead by its read loop.
func (c *coordinator) nextLease(id int64, dead *atomic.Bool) (ci int, outcome leaseOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if dead.Load() {
			return 0, leaseWorkerDead
		}
		if c.fatal != nil {
			return 0, leaseRunFailed
		}
		if c.remaining == 0 || c.finished {
			return 0, leaseRunDone
		}
		now := time.Now()
		for i := range c.chunks {
			st := &c.chunks[i]
			if st.status == chunkPending && !st.notBefore.After(now) {
				st.status = chunkLeased
				st.owner = id
				st.attempts++
				st.deadline = now.Add(c.opt.LeaseTimeout)
				return i, leaseGranted
			}
		}
		c.cond.Wait()
	}
}

// complete records a chunk result. Duplicate results (a worker answered
// after its lease expired and the chunk was re-run elsewhere) are
// ignored — partials are pure functions of the chunk index, so both
// copies are bit-identical and the first wins. Returns false for a
// malformed result, which the caller treats as a protocol failure.
func (c *coordinator) complete(cp *fleet.ChunkPartial) bool {
	if cp.Chunk < 0 || cp.Chunk >= len(c.chunks) {
		return false
	}
	c.mu.Lock()
	if c.chunks[cp.Chunk].status == chunkDone {
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()

	// Checkpoint before marking done (and outside the lock — this is
	// disk I/O): if the write fails, the run fails while the chunk is
	// still officially unfinished, mirroring the in-process engine's
	// put-before-fold ordering. A duplicate-result race can reach here
	// twice; the store put is idempotent and the done-marking below
	// still picks exactly one winner.
	if c.opt.OnChunk != nil {
		if err := c.opt.OnChunk(cp); err != nil {
			c.fail(fmt.Errorf("shard: checkpointing chunk %d: %w", cp.Chunk, err))
			return true
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.chunks[cp.Chunk]
	if st.status == chunkDone {
		return true
	}
	st.status = chunkDone
	c.partials[cp.Chunk] = cp
	c.remaining--
	lo, hi := c.job.ChunkBounds(cp.Chunk)
	c.devices += hi - lo
	if c.remaining == 0 {
		c.cond.Broadcast()
	}
	return true
}

// serveWorker owns one worker connection: handshake, then a feeder
// goroutine streams leases (bounded by the worker's declared capacity)
// while this goroutine reads results. Any read error, malformed frame,
// or disconnect releases the worker's outstanding leases for re-lease.
func (c *coordinator) serveWorker(conn net.Conn) {
	fc := newFrameConn(conn)
	defer fc.close()
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()

	// Handshake, bounded: ship the spec, read the worker's hello, and
	// refuse to lease anything unless its independently computed spec
	// hash matches ours.
	fc.setDeadline(time.Now().Add(handshakeTimeout))
	err := fc.write(&frame{Type: msgJob, Job: jobMsg{
		Proto:    protoVersion,
		Spec:     c.job.Spec(),
		SpecHash: c.job.SpecHash(),
	}})
	if err != nil {
		return
	}
	f, err := fc.read()
	if err != nil || f.Type != msgHello {
		return
	}
	if f.Hello.SpecHash != c.job.SpecHash() {
		fc.write(&frame{Type: msgError, Error: fmt.Sprintf(
			"spec hash mismatch: coordinator %s, worker %s (mismatched binaries?)",
			c.job.SpecHash(), f.Hello.SpecHash)})
		return
	}
	capacity := f.Hello.Capacity
	if capacity < 1 {
		capacity = 1
	}
	if capacity > 256 {
		capacity = 256
	}
	fc.setDeadline(time.Time{})

	c.mu.Lock()
	c.workers++
	if c.workers > c.peak {
		c.peak = c.workers
	}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.workers--
		c.mu.Unlock()
	}()

	// credits carries one token per lease slot: the feeder consumes a
	// token before acquiring a lease, the read loop returns it when the
	// result lands. Buffered to capacity, so the read loop's sends
	// never block even after the feeder has exited. dead flips once the
	// connection is known broken, so the feeder stops acquiring leases
	// a doomed worker would only burn attempts on.
	credits := make(chan struct{}, capacity)
	for i := 0; i < capacity; i++ {
		credits <- struct{}{}
	}
	var dead atomic.Bool
	// farewell tells the worker why no more leases are coming — done,
	// or the run's fatal error — then closes the connection so the
	// paired read loop unwinds even if the worker never speaks again.
	farewell := func() {
		c.mu.Lock()
		fatal := c.fatal
		c.mu.Unlock()
		if fatal != nil {
			fc.write(&frame{Type: msgError, Error: fatal.Error()})
		} else {
			fc.write(&frame{Type: msgDone})
		}
		fc.close()
	}
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		for {
			select {
			case _, ok := <-credits:
				if !ok {
					return // read loop failed; it owns the cleanup
				}
			case <-c.doneCh:
				farewell()
				return
			}
			ci, outcome := c.nextLease(id, &dead)
			switch outcome {
			case leaseWorkerDead:
				return
			case leaseRunDone, leaseRunFailed:
				farewell()
				return
			}
			if err := fc.write(&frame{Type: msgLease, Lease: leaseMsg{Chunk: ci, TTL: c.opt.LeaseTimeout}}); err != nil {
				dead.Store(true)
				c.releaseWorker(id, fmt.Errorf("worker %d: sending lease: %w", id, err))
				fc.close()
				return
			}
		}
	}()

	var failure error
	for {
		f, err := fc.read()
		if err != nil {
			failure = err
			break
		}
		switch f.Type {
		case msgResult:
			if !c.complete(&f.Result) {
				failure = fmt.Errorf("result for out-of-range chunk %d", f.Result.Chunk)
			} else {
				select {
				case credits <- struct{}{}:
				default: // capacity violated by the peer; drop the token
				}
				continue
			}
		case msgError:
			failure = fmt.Errorf("worker error: %s", f.Error)
		default:
			failure = fmt.Errorf("unexpected %v frame from worker", f.Type)
		}
		break
	}
	// Read loop over (disconnect, malformed frame, or worker error):
	// release anything this worker still held, then stop the feeder.
	dead.Store(true)
	c.releaseWorker(id, fmt.Errorf("worker %d: %w", id, failure))
	fc.close()         // unblocks a feeder stuck writing
	close(credits)     // feeder's range terminates once drained
	c.cond.Broadcast() // feeder may be parked in nextLease
	feeder.Wait()
}
