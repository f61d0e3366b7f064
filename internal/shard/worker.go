package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"capybara/internal/fleet"
)

// WorkerOptions carries a worker's deployment settings. None of them
// affect a byte of the report — the canonical fields arrive in the job
// spec from the coordinator, and the parallelism passed to Work is the
// worker's own choice — so heterogeneous workers mix freely in one run.
type WorkerOptions struct {
	// DialRetry keeps retrying the initial connection for this long
	// (0 = fail on the first refused dial). It lets workers start
	// before the coordinator is listening — the usual two-terminal and
	// scripted bring-up order is not deterministic.
	DialRetry time.Duration

	// dieAfterResults, when positive, abruptly closes the connection
	// after sending that many results — the test hook that simulates a
	// worker crashing mid-run at a deterministic point.
	dieAfterResults int
}

// Work runs the worker side of a sharded fleet: dial the coordinator,
// validate the job spec hash against what this binary derives from the
// spec, then lease chunks, run them with `jobs`-way local parallelism
// (<= 0 means GOMAXPROCS), and stream the partials back. It returns nil
// when the coordinator signals completion, and an error on protocol
// failure, spec mismatch, or ctx cancellation.
func Work(ctx context.Context, addr string, jobs int, opts WorkerOptions) error {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	conn, err := dial(ctx, addr, opts.DialRetry)
	if err != nil {
		return err
	}
	defer conn.Close()
	// ctx cancellation unblocks every pending read/write by killing the
	// connection.
	stopCtx := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopCtx()
	fc := newFrameConn(conn)

	// Handshake: receive the job, rebuild it locally, and refuse to
	// work unless our independently computed spec hash matches the
	// coordinator's — mismatched binaries must fail fast, not fold
	// divergent partials.
	fc.setDeadline(time.Now().Add(handshakeTimeout))
	f, err := fc.read()
	if err != nil {
		return fmt.Errorf("shard: reading job spec: %w", wrapCtx(ctx, err))
	}
	if f.Type != msgJob {
		return fmt.Errorf("shard: expected job frame, got %v", f.Type)
	}
	if f.Job.Proto != protoVersion {
		return fmt.Errorf("shard: protocol version mismatch: coordinator %d, worker %d", f.Job.Proto, protoVersion)
	}
	job, err := fleet.NewJob(f.Job.Spec.Exec(jobs))
	if err != nil {
		fc.write(&frame{Type: msgError, Error: err.Error()})
		return fmt.Errorf("shard: bad job spec: %w", err)
	}
	if job.SpecHash() != f.Job.SpecHash {
		err := fmt.Errorf("shard: spec hash mismatch: coordinator %s, worker %s (mismatched binaries?)",
			f.Job.SpecHash, job.SpecHash())
		fc.write(&frame{Type: msgError, Error: err.Error()})
		return err
	}
	if err := fc.write(&frame{Type: msgHello, Hello: helloMsg{SpecHash: job.SpecHash(), Capacity: jobs}}); err != nil {
		return fmt.Errorf("shard: sending hello: %w", wrapCtx(ctx, err))
	}
	fc.setDeadline(time.Time{})

	// The read loop feeds leases to Compute; done streams each partial
	// back (frameConn.write is serialized). Compute failing on its own
	// tells the coordinator (best effort) and kills the connection, which
	// unwinds the read loop; the read loop stopping for any reason stops
	// Compute.
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	leases := make(chan int, jobs)
	stopped := make(chan struct{})
	var failed error // Compute's own failure, not errStopped
	go func() {
		defer close(stopped)
		sent := 0
		_, err := job.Compute(cctx, jobs, leases, func(cp *fleet.ChunkPartial) error {
			if err := fc.write(&frame{Type: msgResult, Result: *cp}); err != nil {
				return fmt.Errorf("shard: sending result: %w", err)
			}
			sent++
			if opts.dieAfterResults > 0 && sent >= opts.dieAfterResults {
				fc.close() // simulated crash: vanish mid-protocol
				return errDied
			}
			return nil
		})
		if err != nil && !errors.Is(err, errStopped) {
			failed = err
			fc.write(&frame{Type: msgError, Error: err.Error()})
			fc.close()
		}
	}()
	finish := func(ret error) error {
		cancel(errStopped)
		close(leases)
		<-stopped
		// Prefer the root cause over the read error it provoked.
		if ret != nil && failed != nil {
			return failed
		}
		return ret
	}

	for {
		f, err := fc.read()
		if err != nil {
			return finish(fmt.Errorf("shard: connection lost: %w", wrapCtx(ctx, err)))
		}
		switch f.Type {
		case msgLease:
			select {
			case leases <- f.Lease.Chunk:
			case <-stopped:
				return finish(errors.New("shard: pipeline failed"))
			}
		case msgDone:
			// The coordinator only signals done once every chunk's
			// result has been received, so anything still running is a
			// duplicate: stop Compute and exit cleanly.
			return finish(nil)
		case msgError:
			return finish(fmt.Errorf("shard: coordinator: %s", f.Error))
		default:
			return finish(fmt.Errorf("shard: unexpected %v frame from coordinator", f.Type))
		}
	}
}

// errDied marks the deliberate test-hook crash.
var errDied = errors.New("shard: worker killed by test hook")

// errStopped is the cause Work cancels Compute with once its read loop
// has stopped.
var errStopped = errors.New("shard: worker stopping")

// wrapCtx substitutes the context's error for the I/O error it caused.
func wrapCtx(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// dial connects to the coordinator, retrying refused/unreachable dials
// for up to retry (workers often start before the coordinator listens).
func dial(ctx context.Context, addr string, retry time.Duration) (net.Conn, error) {
	var d net.Dialer
	deadline := time.Now().Add(retry)
	for {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("shard: dial %s: %w", addr, err)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
