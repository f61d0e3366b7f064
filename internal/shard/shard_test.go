package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"capybara/internal/fleet"
)

// testConfig is small enough for unit tests but decomposes into 12
// chunks (N=96, ChunkSize=8), so leases actually spread across workers
// and mid-run failures leave real work to re-lease.
func testConfig() fleet.Config {
	return fleet.Config{N: 96, Seed: 1, Jobs: 2, Scale: 0.05, ChunkSize: 8}
}

// renderRun renders the single-process reference report.
func renderRun(t *testing.T, cfg fleet.Config) (string, string) {
	t.Helper()
	res, err := fleet.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return renderResult(t, res)
}

func renderResult(t *testing.T, res *fleet.Result) (string, string) {
	t.Helper()
	var csv, js bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return csv.String(), js.String()
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serveWith runs a coordinator over ln while the given worker funcs run
// concurrently, and returns the folded result plus each worker's error.
func serveWith(t *testing.T, cfg fleet.Config, opt Options, workers ...func(addr string) error) (*fleet.Result, []error) {
	t.Helper()
	ln := listen(t)
	addr := ln.Addr().String()
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w func(string) error) {
			defer wg.Done()
			errs[i] = w(addr)
		}(i, w)
	}
	res, err := Serve(context.Background(), ln, cfg, opt)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()
	return res, errs
}

func worker(jobs int, opts WorkerOptions) func(addr string) error {
	return func(addr string) error {
		return Work(context.Background(), addr, jobs, opts)
	}
}

// TestShardByteIdentical is the tentpole guarantee: a loopback
// coordinator with two worker processes produces a report
// byte-identical to the in-process engine at the same config.
func TestShardByteIdentical(t *testing.T) {
	cfg := testConfig()
	wantCSV, wantJSON := renderRun(t, cfg)
	res, errs := serveWith(t, cfg, Options{},
		worker(2, WorkerOptions{}),
		worker(1, WorkerOptions{}), // heterogeneous parallelism must not matter
	)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	gotCSV, gotJSON := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatalf("sharded CSV differs from fleet.Run:\n--- run ---\n%s--- shard ---\n%s", wantCSV, gotCSV)
	}
	if gotJSON != wantJSON {
		t.Fatal("sharded JSON differs from fleet.Run")
	}
	if res.Workers != 2 {
		t.Fatalf("peak workers %d, want 2", res.Workers)
	}
}

// TestShardWorkerKilledMidRun kills one worker after its first result
// (abrupt close while holding further leases) and asserts the re-leased
// run still completes with a report byte-identical to the unfailed run.
func TestShardWorkerKilledMidRun(t *testing.T) {
	cfg := testConfig()
	wantCSV, wantJSON := renderRun(t, cfg)
	res, errs := serveWith(t, cfg, Options{RetryBackoff: time.Millisecond},
		worker(2, WorkerOptions{dieAfterResults: 1}),
		worker(2, WorkerOptions{}),
	)
	if errs[0] == nil {
		t.Fatal("killed worker reported no error")
	}
	if errs[1] != nil {
		t.Fatalf("surviving worker: %v", errs[1])
	}
	gotCSV, gotJSON := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatalf("report after worker death differs:\n--- unfailed ---\n%s--- failed ---\n%s", wantCSV, gotCSV)
	}
	if gotJSON != wantJSON {
		t.Fatal("JSON report after worker death differs")
	}
}

// TestShardSoleWorkerDiesThenReplacementFinishes: the run survives a
// window with zero workers — chunks wait for the next connection.
func TestShardSoleWorkerDiesThenReplacementFinishes(t *testing.T) {
	cfg := testConfig()
	wantCSV, _ := renderRun(t, cfg)
	res, errs := serveWith(t, cfg, Options{RetryBackoff: time.Millisecond},
		worker(1, WorkerOptions{dieAfterResults: 2}),
		func(addr string) error {
			time.Sleep(150 * time.Millisecond) // arrive after the first worker died
			return Work(context.Background(), addr, 2, WorkerOptions{})
		},
	)
	if errs[0] == nil {
		t.Fatal("killed worker reported no error")
	}
	if errs[1] != nil {
		t.Fatalf("replacement worker: %v", errs[1])
	}
	gotCSV, _ := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatal("report differs after sole-worker death and replacement")
	}
}

// rawDial completes the handshake like a real worker would (computing
// the true spec hash via fleet.NewJob) and hands back the framed conn.
func rawDial(t *testing.T, addr string, capacity int) (*frameConn, *frame) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(conn)
	jobFrame, err := fc.read()
	if err != nil || jobFrame.Type != msgJob {
		t.Fatalf("handshake read: %v (type %v)", err, jobFrame.Type)
	}
	job, err := fleet.NewJob(jobFrame.Job.Spec.Exec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.write(&frame{Type: msgHello, Hello: helloMsg{SpecHash: job.SpecHash(), Capacity: capacity}}); err != nil {
		t.Fatal(err)
	}
	return fc, jobFrame
}

// TestShardSpecHashMismatchRejected: a worker declaring a different
// spec hash is refused before any lease, and the run still completes on
// the honest worker with an identical report.
func TestShardSpecHashMismatchRejected(t *testing.T) {
	cfg := testConfig()
	wantCSV, _ := renderRun(t, cfg)
	mismatch := make(chan string, 1)
	res, errs := serveWith(t, cfg, Options{},
		worker(2, WorkerOptions{}),
		func(addr string) error {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return err
			}
			defer conn.Close()
			fc := newFrameConn(conn)
			if _, err := fc.read(); err != nil {
				return err
			}
			if err := fc.write(&frame{Type: msgHello, Hello: helloMsg{SpecHash: "deadbeef", Capacity: 1}}); err != nil {
				return err
			}
			f, err := fc.read()
			if err == nil && f.Type == msgError {
				mismatch <- f.Error
			}
			return nil
		},
	)
	if errs[0] != nil {
		t.Fatalf("honest worker: %v", errs[0])
	}
	select {
	case msg := <-mismatch:
		if !strings.Contains(msg, "spec hash mismatch") {
			t.Fatalf("rejection message %q", msg)
		}
	default:
		t.Fatal("mismatched worker was not rejected with an error frame")
	}
	gotCSV, _ := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatal("report differs after rejecting a mismatched worker")
	}
}

// TestShardWorkerRejectsBadCoordinator: the worker side of the same
// check — a coordinator announcing a hash the worker cannot reproduce
// is refused.
func TestShardWorkerRejectsBadCoordinator(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fc := newFrameConn(conn)
		fc.write(&frame{Type: msgJob, Job: jobMsg{
			Proto:    protoVersion,
			Spec:     fleet.Spec{N: 8, Seed: 1, Scale: 0.05, ChunkSize: 8},
			SpecHash: "not-the-real-hash",
		}})
		fc.read() // worker's error frame, then EOF
	}()
	err := Work(context.Background(), ln.Addr().String(), 1, WorkerOptions{})
	if err == nil || !strings.Contains(err.Error(), "spec hash mismatch") {
		t.Fatalf("worker accepted a mismatched coordinator: %v", err)
	}
}

// TestShardMalformedFrameReLeased: a worker that takes a lease and then
// sends garbage is dropped, its chunk is re-leased, and the report is
// unchanged.
func TestShardMalformedFrameReLeased(t *testing.T) {
	cfg := testConfig()
	wantCSV, _ := renderRun(t, cfg)
	res, errs := serveWith(t, cfg, Options{RetryBackoff: time.Millisecond},
		worker(2, WorkerOptions{}),
		func(addr string) error {
			fc, _ := rawDial(t, addr, 1)
			defer fc.close()
			if _, err := fc.read(); err != nil { // the lease
				return nil // run may already be over — fine
			}
			// A plausible length prefix followed by garbage: framing
			// accepts it, gob decode must not.
			var buf [16]byte
			binary.BigEndian.PutUint32(buf[:4], 12)
			copy(buf[4:], []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
			fc.c.Write(buf[:])
			fc.read() // wait for the drop
			return nil
		},
	)
	if errs[0] != nil {
		t.Fatalf("honest worker: %v", errs[0])
	}
	gotCSV, _ := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatal("report differs after a malformed-frame worker")
	}
}

// TestShardLeaseTimeoutReLeased: a worker that accepts a lease and goes
// silent has it re-leased after the deadline; the run completes on the
// healthy worker with an identical report.
func TestShardLeaseTimeoutReLeased(t *testing.T) {
	cfg := testConfig()
	wantCSV, _ := renderRun(t, cfg)
	stallDropped := make(chan struct{})
	// MaxAttempts has headroom well past the default 3: the stalling
	// worker re-grabs pending chunks as fast as leases expire, so on a
	// loaded box it can legitimately burn several attempts of one chunk
	// before the healthy worker frees up and claims it. The test's
	// subject is re-leasing, not attempt exhaustion (that's
	// TestShardRetriesExhausted).
	res, errs := serveWith(t, cfg,
		Options{LeaseTimeout: 200 * time.Millisecond, RetryBackoff: time.Millisecond, MaxAttempts: 64},
		worker(2, WorkerOptions{}),
		func(addr string) error {
			fc, _ := rawDial(t, addr, 1)
			defer fc.close()
			// Accept leases, never answer. The coordinator closes the
			// conn at shutdown; read until then.
			for {
				if _, err := fc.read(); err != nil {
					close(stallDropped)
					return nil
				}
			}
		},
	)
	if errs[0] != nil {
		t.Fatalf("healthy worker: %v", errs[0])
	}
	<-stallDropped
	gotCSV, _ := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatal("report differs after lease-timeout re-leasing")
	}
}

// TestShardRetriesExhausted: when a chunk's lease attempts are spent,
// the run fails hard with a descriptive error instead of spinning.
func TestShardRetriesExhausted(t *testing.T) {
	ln := listen(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		fc, _ := rawDial(t, ln.Addr().String(), 1)
		defer fc.close()
		for { // hold leases silently until the coordinator gives up
			if _, err := fc.read(); err != nil {
				return
			}
		}
	}()
	_, err := Serve(context.Background(), ln, testConfig(),
		Options{LeaseTimeout: 50 * time.Millisecond, MaxAttempts: 1, RetryBackoff: time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "lease attempts") {
		t.Fatalf("exhausted retries did not fail hard: %v", err)
	}
	<-done
}

// chunk0Refuser is a worker that computes every chunk except chunk 0.
// It holds chunk 0's lease silently while answering the rest, then
// kills its connection and reconnects; the second grant dies instantly.
// Exhaustion is therefore driven entirely by disconnects — no reliance
// on lease-expiry timing, so the test is exact under -race on slow
// machines. Returns nil when the coordinator stops serving.
func chunk0Refuser(addr string) error {
	computed := 0
	firstConn := true
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil // listener closed: the run is over
		}
		fc := newFrameConn(conn)
		jobFrame, err := fc.read()
		if err != nil || jobFrame.Type != msgJob {
			fc.close()
			return nil
		}
		job, err := fleet.NewJob(jobFrame.Job.Spec.Exec(1))
		if err != nil {
			fc.close()
			return err
		}
		n := job.NumChunks()
		if err := fc.write(&frame{Type: msgHello, Hello: helloMsg{SpecHash: job.SpecHash(), Capacity: 2}}); err != nil {
			fc.close()
			return nil
		}
		ws := job.NewScratch()
		dead := false
		for !dead {
			f, err := fc.read()
			if err != nil || f.Type != msgLease {
				fc.close()
				return nil // done/error farewell or coordinator close
			}
			if f.Lease.Chunk == 0 {
				if !firstConn {
					dead = true // second grant: die at once, exhausting it
				}
				continue // first grant: hold silently, keep serving others
			}
			cp, err := job.RunChunk(context.Background(), f.Lease.Chunk, ws)
			if err != nil {
				fc.close()
				return err
			}
			if err := fc.write(&frame{Type: msgResult, Result: *cp}); err != nil {
				fc.close()
				return nil
			}
			computed++
			if computed == n-1 {
				dead = true // everything but chunk 0 done: die holding it
			}
		}
		fc.close() // abrupt: the held chunk-0 lease is released for re-lease
		firstConn = false
	}
}

// TestShardCheckpointResumeRetriesOnlyFailed is the coordinator-side
// resume regression: a run whose worker refuses chunk 0 fails with a
// ChunkError naming exactly that chunk, the other chunks having been
// checkpointed through OnChunk on the way down — and a second run
// pre-seeded with those checkpoints re-leases only chunk 0 and folds a
// report byte-identical to the unfailed run.
func TestShardCheckpointResumeRetriesOnlyFailed(t *testing.T) {
	cfg := testConfig()
	wantCSV, _ := renderRun(t, cfg)
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := job.NumChunks()

	// First run: checkpoint every completed chunk; chunk 0 exhausts.
	var mu sync.Mutex
	checkpointed := map[int]*fleet.ChunkPartial{}
	var workerWG sync.WaitGroup
	workerErr := error(nil)
	ln := listen(t)
	workerWG.Add(1)
	go func() {
		defer workerWG.Done()
		workerErr = chunk0Refuser(ln.Addr().String())
	}()
	_, err = Serve(context.Background(), ln, cfg, Options{
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
		OnChunk: func(cp *fleet.ChunkPartial) error {
			mu.Lock()
			checkpointed[cp.Chunk] = cp
			mu.Unlock()
			return nil
		},
	})
	workerWG.Wait()
	if workerErr != nil {
		t.Fatalf("refusing worker: %v", workerErr)
	}
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("failed run returned %v (%T), want *ChunkError", err, err)
	}
	if len(ce.Failed) != 1 || ce.Failed[0] != 0 {
		t.Fatalf("ChunkError.Failed = %v, want [0]", ce.Failed)
	}
	if !strings.Contains(err.Error(), "lease attempts") {
		t.Fatalf("ChunkError message %q lost the lease-attempts marker", err)
	}
	if len(checkpointed) != n-1 {
		t.Fatalf("failed run checkpointed %d chunks, want %d (all but the refused one)", len(checkpointed), n-1)
	}
	if _, ok := checkpointed[0]; ok {
		t.Fatal("the refused chunk was checkpointed")
	}

	// Resume: pre-seed the survivors; only chunk 0 should be computed.
	completed := make([]*fleet.ChunkPartial, 0, n-1)
	for _, cp := range checkpointed {
		completed = append(completed, cp)
	}
	var recomputed []int
	res, errs := serveWith(t, cfg, Options{
		RetryBackoff: time.Millisecond,
		Completed:    completed,
		OnChunk: func(cp *fleet.ChunkPartial) error {
			mu.Lock()
			recomputed = append(recomputed, cp.Chunk)
			mu.Unlock()
			return nil
		},
	}, worker(2, WorkerOptions{}))
	if errs[0] != nil {
		t.Fatalf("resume worker: %v", errs[0])
	}
	if len(recomputed) != 1 || recomputed[0] != 0 {
		t.Fatalf("resume recomputed chunks %v, want exactly [0]", recomputed)
	}
	gotCSV, _ := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatal("resumed report differs from the unfailed run")
	}
}

// TestShardCompletedAllChunks: a run pre-seeded with every chunk folds
// and returns without leasing anything — no workers ever connect.
func TestShardCompletedAllChunks(t *testing.T) {
	cfg := testConfig()
	wantCSV, _ := renderRun(t, cfg)
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	completed := make([]*fleet.ChunkPartial, job.NumChunks())
	for ci := range completed {
		cp, err := job.RunChunk(context.Background(), ci, nil)
		if err != nil {
			t.Fatal(err)
		}
		completed[ci] = cp
	}
	res, err := Serve(context.Background(), listen(t), cfg, Options{Completed: completed})
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, _ := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatal("fully pre-seeded report differs from fleet.Run")
	}
}

// TestShardCompletedValidation: partials that cannot belong to the job
// are rejected before the listener accepts any worker.
func TestShardCompletedValidation(t *testing.T) {
	cfg := testConfig()
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := job.RunChunk(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	outOfRange := *cp
	outOfRange.Chunk = job.NumChunks()
	if _, err := Serve(context.Background(), listen(t), cfg, Options{Completed: []*fleet.ChunkPartial{&outOfRange}}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range completed chunk accepted: %v", err)
	}

	wrongGrid := *cp
	wrongGrid.Cohorts = wrongGrid.Cohorts[:1]
	if _, err := Serve(context.Background(), listen(t), cfg, Options{Completed: []*fleet.ChunkPartial{&wrongGrid}}); err == nil || !strings.Contains(err.Error(), "cohorts") {
		t.Fatalf("wrong-grid completed chunk accepted: %v", err)
	}
}

// TestShardOnChunkErrorFailsRun: a checkpoint hook error is a hard
// failure, not a warning — losing durability silently would defeat the
// resume guarantee.
func TestShardOnChunkErrorFailsRun(t *testing.T) {
	ln := listen(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		Work(context.Background(), ln.Addr().String(), 2, WorkerOptions{})
	}()
	_, err := Serve(context.Background(), ln, testConfig(), Options{
		OnChunk: func(cp *fleet.ChunkPartial) error {
			return fmt.Errorf("disk full")
		},
	})
	wg.Wait()
	if err == nil || !strings.Contains(err.Error(), "checkpointing chunk") || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("OnChunk failure did not fail the run: %v", err)
	}
}

// TestShardServeCanceled: ctx cancellation aborts a run with no workers.
func TestShardServeCanceled(t *testing.T) {
	ln := listen(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Serve(ctx, ln, testConfig(), Options{}); err == nil {
		t.Fatal("canceled Serve returned a result")
	}
}

// TestShardWorkCanceled: ctx cancellation unsticks a worker waiting on
// a silent coordinator.
func TestShardWorkCanceled(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			time.Sleep(5 * time.Second) // never send the job
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := Work(ctx, ln.Addr().String(), 1, WorkerOptions{}); err == nil {
		t.Fatal("canceled Work returned nil")
	}
}

// TestShardBadConfig: Serve validates the fleet config before
// listening-side work begins.
func TestShardBadConfig(t *testing.T) {
	ln := listen(t)
	defer ln.Close()
	if _, err := Serve(context.Background(), ln, fleet.Config{N: -1}, Options{}); err == nil {
		t.Fatal("negative N accepted")
	}
	if _, err := Serve(context.Background(), ln, fleet.Config{N: 1, Scale: 2}, Options{}); err == nil {
		t.Fatal("bad scale accepted")
	}
}

// TestFrameRoundTrip pins the framing layer: encode → decode is exact,
// oversized and zero-length frames are rejected at the prefix.
func TestFrameRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	in := &frame{Type: msgLease, Lease: leaseMsg{Chunk: 42, TTL: 3 * time.Second}}
	go func() {
		newFrameConn(client).write(in)
	}()
	out, err := newFrameConn(server).read()
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != msgLease || out.Lease != in.Lease {
		t.Fatalf("round trip got %+v, want %+v", out, in)
	}

	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		client.Write(hdr[:])
	}()
	if _, err := newFrameConn(server).read(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("oversized frame accepted: %v", err)
	}

	go func() {
		client.Write([]byte{0, 0, 0, 0})
	}()
	if _, err := newFrameConn(server).read(); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

// TestShardDialRetry: a worker started before the coordinator listens
// connects once the listener appears.
func TestShardDialRetry(t *testing.T) {
	// Reserve an address, then free it so the first dials are refused.
	ln := listen(t)
	addr := ln.Addr().String()
	ln.Close()

	cfg := testConfig()
	wantCSV, _ := renderRun(t, cfg)
	var res *fleet.Result
	var serveErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(200 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			serveErr = err
			return
		}
		res, serveErr = Serve(context.Background(), ln2, cfg, Options{})
	}()
	if err := Work(context.Background(), addr, 2, WorkerOptions{DialRetry: 5 * time.Second}); err != nil {
		t.Fatalf("worker with dial retry: %v", err)
	}
	<-done
	if serveErr != nil {
		t.Fatalf("Serve: %v", serveErr)
	}
	gotCSV, _ := renderResult(t, res)
	if gotCSV != wantCSV {
		t.Fatal("report differs via dial-retry worker")
	}
}
