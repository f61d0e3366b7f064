package fleetsvc

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"capybara/internal/fleet"
)

// newTestTable builds a lease table of n pending chunks, driven
// synchronously under its own lock.
func newTestTable(n int, pol leasePolicy) (*leaseTable, *sync.Mutex) {
	var mu sync.Mutex
	return newLeaseTable(&mu, pol, make([]*fleet.ChunkPartial, n)), &mu
}

// noExpiry is a grant's expiry callback for tests that never let a
// lease time out.
func noExpiry(int, int) {}

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

// TestRequeueBackoffBounded drives the fix through requeue: a chunk on
// a huge attempt count must land with notBefore in the future and
// within the cap — the pre-fix shift put it in the past or centuries
// ahead.
func TestRequeueBackoffBounded(t *testing.T) {
	l, mu := newTestTable(4, leasePolicy{timeout: time.Hour, attempts: 64, backoff: leaseBackoff})
	mu.Lock()
	defer mu.Unlock()
	if ci := l.grant(time.Now(), noExpiry); ci != 0 {
		t.Fatalf("grant = %d, want chunk 0", ci)
	}
	l.chunks[0].attempts = 45
	before := time.Now()
	l.requeue(0, errors.New("boom"))
	c := l.chunks[0]
	if c.state != chunkPending || l.failure() != nil {
		t.Fatalf("requeued chunk state %d, failure %v: want pending, no failure", c.state, l.failure())
	}
	if c.notBefore.Before(before) {
		t.Fatalf("notBefore %v is in the past of %v: backoff vanished", c.notBefore, before)
	}
	if limit := before.Add(maxRetryBackoff + time.Second); c.notBefore.After(limit) {
		t.Fatalf("notBefore %v beyond cap horizon %v: backoff overflowed", c.notBefore, limit)
	}
}

// TestLeaseHonorsBackoffEligibility: a remote grant never hands out a
// chunk before its backoff ends, and hands it out, lowest first, once
// it has; a local worker takes a pending chunk whatever its backoff,
// since a local lease cannot fail the way the backoff guards against.
func TestLeaseHonorsBackoffEligibility(t *testing.T) {
	l, mu := newTestTable(3, leasePolicy{timeout: time.Hour, attempts: 3, backoff: time.Hour})
	mu.Lock()
	defer mu.Unlock()
	now := time.Now()
	if ci := l.grant(now, noExpiry); ci != 0 {
		t.Fatalf("grant = %d, want chunk 0", ci)
	}
	l.requeue(0, errors.New("refused"))
	eligible := l.chunks[0].notBefore
	if ci := l.grant(now, noExpiry); ci != 1 {
		t.Fatalf("grant during chunk 0's backoff = %d, want chunk 1", ci)
	}
	if ci := l.grant(eligible.Add(-time.Nanosecond), noExpiry); ci != 2 {
		t.Fatalf("grant just before chunk 0's backoff ends = %d, want chunk 2", ci)
	}
	if ci := l.grant(eligible, noExpiry); ci != 0 {
		t.Fatalf("grant when chunk 0's backoff ends = %d, want chunk 0", ci)
	}
	if ci := l.grant(eligible, noExpiry); ci != -1 {
		t.Fatalf("grant with every chunk leased = %d, want none", ci)
	}

	l.requeue(0, errors.New("refused again"))
	if ci := l.grant(time.Now(), noExpiry); ci != -1 {
		t.Fatalf("remote grant during the backoff = %d, want none", ci)
	}
	if ci := l.takeLocal(); ci != 0 {
		t.Fatalf("local take during the backoff = %d, want chunk 0", ci)
	}
	// A local lease neither expires nor goes back on a refused result.
	l.requeue(0, errors.New("not a remote lease"))
	if c := l.chunks[0]; c.state != chunkLeased || c.timer != nil {
		t.Fatalf("local lease after a requeue: %+v", c)
	}
	l.close()
}

// TestExhaustedChunksListed: once chunks spend their attempts the run
// fails with an error listing every exhausted chunk, sorted, and the
// first one's cause; nothing more is granted.
func TestExhaustedChunksListed(t *testing.T) {
	l, mu := newTestTable(8, leasePolicy{timeout: time.Hour, attempts: 1, backoff: time.Millisecond})
	mu.Lock()
	defer mu.Unlock()
	for ci := 0; ci < 6; ci++ {
		if got := l.grant(time.Now(), noExpiry); got != ci {
			t.Fatalf("grant = %d, want chunk %d", got, ci)
		}
	}
	l.requeue(5, errors.New("first cause"))
	l.requeue(2, errors.New("second cause"))
	err := l.failure()
	if err == nil || !strings.Contains(err.Error(), "chunk(s) [2 5] failed after exhausting lease attempts: first cause") {
		t.Fatalf("failure = %v", err)
	}
	if ci := l.grant(time.Now(), noExpiry); ci != -1 {
		t.Fatalf("grant after the run failed = %d, want none", ci)
	}
	l.close()
}
