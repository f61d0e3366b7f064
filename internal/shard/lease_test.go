package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"capybara/internal/fleet"
)

// newTestCoordinator builds a coordinator directly (no listener, no
// workers) so lease scheduling can be driven synchronously.
func newTestCoordinator(t *testing.T, opt Options) *coordinator {
	t.Helper()
	job := newJob(t, testConfig())
	c := &coordinator{
		job:       job,
		opt:       opt.withDefaults(),
		chunks:    make([]chunkState, job.NumChunks()),
		partials:  make([]*fleet.ChunkPartial, job.NumChunks()),
		doneCh:    make(chan struct{}),
		remaining: job.NumChunks(),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// TestRetryDelayClampedMonotone is the regression test for the lease
// backoff overflow: the old `retryBackoff << (attempts-1)` expression
// overflows time.Duration around attempt 40 with a 100ms base,
// producing a negative delay (backoff silently vanishes) or an
// astronomically-future notBefore (the chunk is never re-leased and the
// run stalls). Walking attempts 1..64 fails against that expression and
// pins the fixed shape: exact doubling until the cap, then flat.
func TestRetryDelayClampedMonotone(t *testing.T) {
	base := 100 * time.Millisecond
	prev := time.Duration(0)
	for attempts := 1; attempts <= 64; attempts++ {
		d := retryDelay(base, attempts)
		if d <= 0 {
			t.Fatalf("retryDelay(%v, %d) = %v, want positive", base, attempts, d)
		}
		if d < prev {
			t.Fatalf("retryDelay(%v, %d) = %v < previous %v, want non-decreasing", base, attempts, d, prev)
		}
		if d > maxRetryBackoff {
			t.Fatalf("retryDelay(%v, %d) = %v, want <= cap %v", base, attempts, d, maxRetryBackoff)
		}
		prev = d
	}
	if got := retryDelay(base, 64); got != maxRetryBackoff {
		t.Fatalf("retryDelay(%v, 64) = %v, want cap %v", base, got, maxRetryBackoff)
	}
	if got, want := retryDelay(base, 3), 400*time.Millisecond; got != want {
		t.Fatalf("retryDelay(%v, 3) = %v, want exact doubling %v", base, got, want)
	}
	// A base at or above the cap is honored, never shortened: the cap
	// bounds growth, not configuration.
	for _, attempts := range []int{1, 7, 64} {
		if got := retryDelay(3*time.Minute, attempts); got != 3*time.Minute {
			t.Fatalf("retryDelay(3m, %d) = %v, want 3m unchanged", attempts, got)
		}
	}
}

// TestRequeueBackoffBounded drives the fix through requeueLocked: a
// chunk on a huge attempt count must land with notBefore in the future
// and within the cap — the pre-fix shift put it in the past or
// centuries ahead.
func TestRequeueBackoffBounded(t *testing.T) {
	c := newTestCoordinator(t, Options{MaxAttempts: 64})
	c.chunks[0] = chunkState{status: chunkLeased, owner: 1, attempts: 45}
	before := time.Now()
	c.mu.Lock()
	c.requeueLocked(0, errors.New("boom"))
	c.mu.Unlock()
	st := c.chunks[0]
	if st.status != chunkPending {
		t.Fatalf("requeued chunk status = %d, want pending", st.status)
	}
	if st.notBefore.Before(before) {
		t.Fatalf("notBefore %v is in the past of %v: backoff vanished", st.notBefore, before)
	}
	if limit := before.Add(maxRetryBackoff + time.Second); st.notBefore.After(limit) {
		t.Fatalf("notBefore %v beyond cap horizon %v: backoff overflowed", st.notBefore, limit)
	}
}

// TestLeaseHonorsBackoffEligibility is the lease-timing property pair:
// nextLease must never grant a chunk before its notBefore, and once the
// backoff elapses the monitor's periodic broadcast must get it
// re-leased within roughly one ticker period (the wakeup path — no
// other event signals backoff expiry).
func TestLeaseHonorsBackoffEligibility(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTimeout: 40 * time.Millisecond})
	// Leave only chunk 0 in play so nextLease's scan is deterministic.
	for i := 1; i < len(c.chunks); i++ {
		c.chunks[i].status = chunkDone
	}
	c.remaining = 1
	stop := make(chan struct{})
	defer close(stop)
	go c.monitor(stop)

	// monitor's tick for a 40ms lease timeout is 5ms; see monitor().
	tick := c.opt.LeaseTimeout / 8
	var dead atomic.Bool
	for trial := 0; trial < 5; trial++ {
		backoff := time.Duration(10+8*trial) * time.Millisecond
		eligible := time.Now().Add(backoff)
		c.mu.Lock()
		c.chunks[0] = chunkState{status: chunkPending, notBefore: eligible}
		c.mu.Unlock()
		ci, outcome := c.nextLease(1, &dead)
		granted := time.Now()
		if outcome != leaseGranted || ci != 0 {
			t.Fatalf("trial %d: nextLease = (%d, %d), want (0, granted)", trial, ci, outcome)
		}
		if granted.Before(eligible) {
			t.Fatalf("trial %d: granted at %v, before notBefore %v", trial, granted, eligible)
		}
		// One ticker period plus generous scheduler slack: a broken
		// wakeup path doesn't miss by milliseconds, it blocks until an
		// unrelated broadcast (or forever).
		if limit := eligible.Add(tick + 750*time.Millisecond); granted.After(limit) {
			t.Fatalf("trial %d: granted at %v, want within a tick of %v", trial, granted, eligible)
		}
	}

	// A pending chunk whose backoff has not elapsed must never be
	// granted: with notBefore far in the future, a worker declared dead
	// mid-wait exits without a lease.
	c.mu.Lock()
	c.chunks[0] = chunkState{status: chunkPending, notBefore: time.Now().Add(time.Hour)}
	c.mu.Unlock()
	dead.Store(false)
	time.AfterFunc(30*time.Millisecond, func() { dead.Store(true) })
	if ci, outcome := c.nextLease(1, &dead); outcome != leaseWorkerDead {
		t.Fatalf("nextLease = (%d, %d), want worker-dead: chunk granted %v early",
			ci, outcome, time.Until(c.chunks[0].notBefore))
	}
}
