package fleetsvc

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"capybara/internal/fleet"
)

// manualClock is a clock that moves only when a test advances it.
type manualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*manualTimer // armed and not yet due, in arming order
	armed  int            // AfterFunc calls so far
}

type manualTimer struct {
	at time.Time
	f  func()
}

func newManualClock() *manualClock {
	return &manualClock{now: time.Date(2018, 3, 24, 0, 0, 0, 0, time.UTC)}
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &manualTimer{at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	c.armed++
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		i := slices.Index(c.timers, t)
		if i >= 0 {
			c.timers = slices.Delete(c.timers, i, i+1)
		}
		return i >= 0
	}
}

// Advance moves the clock d forward. Every callback that falls due runs
// on the calling goroutine, in deadline order (arming order among
// equal deadlines), with Now at its deadline and the clock unlocked.
// The caller must hold no lock a callback takes.
func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for {
		i := -1
		for k, t := range c.timers {
			if !t.at.After(end) && (i < 0 || t.at.Before(c.timers[i].at)) {
				i = k
			}
		}
		if i < 0 {
			break
		}
		t := c.timers[i]
		c.timers = slices.Delete(c.timers, i, i+1)
		c.now = t.at
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
	c.now = end
	c.mu.Unlock()
}

// arms returns how many timers have been armed.
func (c *manualClock) arms() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed
}

// newTestJob returns a job whose lease table holds n pending chunks and
// reads clk, as a running job's does.
func newTestJob(n int, clk clock) *job {
	j := &job{}
	j.leases = newLeaseTable(&j.mu, clk, make([]*fleet.ChunkPartial, n))
	return j
}

// grant leases j's next chunk to a remote worker, or returns -1.
func grant(t *testing.T, j *job) int {
	t.Helper()
	ci, ok, err := j.lease()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return -1
	}
	return ci
}

// TestLeaseExpiresAtTimeout: a remote lease is still out a nanosecond
// before the lease timeout and has expired at it, and its chunk goes
// back to pending behind the first backoff, counted from the expiry.
func TestLeaseExpiresAtTimeout(t *testing.T) {
	clk := newManualClock()
	j := newTestJob(1, clk)
	granted := clk.Now()
	if ci := grant(t, j); ci != 0 {
		t.Fatalf("grant = %d, want chunk 0", ci)
	}
	clk.Advance(leaseTimeout - time.Nanosecond)
	if c := j.leases.chunks[0]; c.state != chunkLeased {
		t.Fatalf("chunk 0 is %d a nanosecond before its lease times out, want leased", c.state)
	}
	clk.Advance(time.Nanosecond)
	c := j.leases.chunks[0]
	if want := granted.Add(leaseTimeout + leaseBackoff); c.state != chunkPending || c.stop != nil || !c.notBefore.Equal(want) {
		t.Fatalf("chunk 0 at its lease timeout: state %d, timer %v, eligible at %v; want pending, none, %v",
			c.state, c.stop != nil, c.notBefore, want)
	}
	if err := j.leases.failure(); err != nil {
		t.Fatalf("one expiry failed the run: %v", err)
	}
}

// TestLeaseBackoffThenExhaustion: a chunk whose remote grants fail is
// leased again 250 ms after its first failure and 500 ms after its
// second, never sooner, and its third failure exhausts it: the run
// fails naming it and the last cause, and nothing more is granted.
func TestLeaseBackoffThenExhaustion(t *testing.T) {
	clk := newManualClock()
	j := newTestJob(1, clk)
	for attempt, backoff := range []time.Duration{250 * time.Millisecond, 500 * time.Millisecond} {
		if ci := grant(t, j); ci != 0 {
			t.Fatalf("attempt %d: grant = %d, want chunk 0", attempt+1, ci)
		}
		j.refuse(0, errors.New("refused"))
		clk.Advance(backoff - time.Nanosecond)
		if ci := grant(t, j); ci != -1 {
			t.Fatalf("grant a nanosecond before the %v backoff ends = %d, want none", backoff, ci)
		}
		clk.Advance(time.Nanosecond)
	}
	if ci := grant(t, j); ci != 0 {
		t.Fatalf("attempt 3: grant = %d, want chunk 0", ci)
	}
	if err := j.leases.failure(); err != nil {
		t.Fatalf("two failures failed the run: %v", err)
	}
	clk.Advance(leaseTimeout)
	err := j.leases.failure()
	if err == nil || !strings.Contains(err.Error(), "chunk(s) [0] failed after exhausting lease attempts: lease expired after 1m0s") {
		t.Fatalf("failure after the third = %v", err)
	}
	clk.Advance(time.Hour)
	if ci := grant(t, j); ci != -1 {
		t.Fatalf("grant after the run failed = %d, want none", ci)
	}
}

// TestLeaseHonorsBackoffEligibility: a remote grant never hands out a
// chunk before its backoff ends, and hands it out, lowest first, once
// it has; a local worker takes a pending chunk whatever its backoff,
// since a local lease cannot fail the way the backoff guards against.
func TestLeaseHonorsBackoffEligibility(t *testing.T) {
	clk := newManualClock()
	j := newTestJob(3, clk)
	if ci := grant(t, j); ci != 0 {
		t.Fatalf("grant = %d, want chunk 0", ci)
	}
	j.refuse(0, errors.New("refused"))
	if ci := grant(t, j); ci != 1 {
		t.Fatalf("grant during chunk 0's backoff = %d, want chunk 1", ci)
	}
	clk.Advance(leaseBackoff - time.Nanosecond)
	if ci := grant(t, j); ci != 2 {
		t.Fatalf("grant just before chunk 0's backoff ends = %d, want chunk 2", ci)
	}
	clk.Advance(time.Nanosecond)
	if ci := grant(t, j); ci != 0 {
		t.Fatalf("grant when chunk 0's backoff ends = %d, want chunk 0", ci)
	}
	if ci := grant(t, j); ci != -1 {
		t.Fatalf("grant with every chunk leased = %d, want none", ci)
	}

	j.refuse(0, errors.New("refused again"))
	if ci := grant(t, j); ci != -1 {
		t.Fatalf("remote grant during the backoff = %d, want none", ci)
	}
	if ci, ok := j.takeLocal(context.Background()); !ok || ci != 0 {
		t.Fatalf("local take during the backoff = (%d, %v), want chunk 0", ci, ok)
	}
	// A local lease neither expires nor goes back on a refused result.
	j.refuse(0, errors.New("not a remote lease"))
	clk.Advance(24 * time.Hour)
	if c := j.leases.chunks[0]; c.state != chunkLeased || c.stop != nil {
		t.Fatalf("local lease after a refusal and a day: %+v", c)
	}
	j.leases.close()
}

// TestExhaustedChunksListed: once chunks spend their attempts the run
// fails with an error listing every exhausted chunk, sorted, and the
// first one's cause; nothing more is granted.
func TestExhaustedChunksListed(t *testing.T) {
	clk := newManualClock()
	j := newTestJob(8, clk)
	for ci := 0; ci < 6; ci++ {
		if got := grant(t, j); got != ci {
			t.Fatalf("grant = %d, want chunk %d", got, ci)
		}
	}
	// Chunks 5 and 2 fail on each of their grants; the run fails at
	// the first exhaustion, so each is granted its last time first.
	for attempt := 1; attempt < leaseAttempts; attempt++ {
		j.refuse(5, errors.New("refused"))
		j.refuse(2, errors.New("refused"))
		clk.Advance(leaseBackoff << (attempt - 1))
		for _, want := range []int{2, 5} {
			if got := grant(t, j); got != want {
				t.Fatalf("grant after the backoff = %d, want chunk %d", got, want)
			}
		}
	}
	j.refuse(5, errors.New("first cause"))
	j.refuse(2, errors.New("second cause"))
	err := j.leases.failure()
	if err == nil || !strings.Contains(err.Error(), "chunk(s) [2 5] failed after exhausting lease attempts: first cause") {
		t.Fatalf("failure = %v", err)
	}
	if ci := grant(t, j); ci != -1 {
		t.Fatalf("grant after the run failed = %d, want none", ci)
	}
	j.leases.close()
}

// TestTakeLocalReturnsWhenCanceled: a local worker waiting for a chunk
// while every chunk is leased remotely gets none once its context is
// done, as when a sibling chunk's failure cancels it.
func TestTakeLocalReturnsWhenCanceled(t *testing.T) {
	j := newTestJob(2, newManualClock())
	for ci := 0; ci < 2; ci++ {
		if got := grant(t, j); got != ci {
			t.Fatalf("grant = %d, want chunk %d", got, ci)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	ret := make(chan bool, 1)
	go func() {
		_, ok := j.takeLocal(ctx)
		ret <- ok
	}()
	waitParked(t, "(*job).takeLocal")
	cancel()
	select {
	case ok := <-ret:
		if ok {
			t.Fatal("takeLocal leased a chunk after its context ended")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("takeLocal did not return once its context ended")
	}
	j.leases.close()
}

// waitParked returns once some goroutine waits on a sync.Cond inside
// the function fn names.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "sync.(*Cond).Wait") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine waited in %s", fn)
}
