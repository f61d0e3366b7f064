package fleetsvc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"capybara/internal/fleet"
)

// Chunk leases. A running job hands every chunk it still needs to a
// worker through one table: the service's own Jobs workers take their
// chunks from it, and so do remote workers (Work) over the HTTP API. A
// chunk moves pending → leased → done and is granted lowest index
// first. A remote lease expires after the lease timeout; a chunk whose
// remote lease expires, or whose remote result is refused, goes back
// to pending behind a backoff and is leased again, and the job fails
// once a chunk has been granted remotely leaseAttempts times. A local
// lease never expires: a local worker cannot vanish without the daemon
// going too, and a local chunk that fails fails the job. Re-running a
// chunk is always safe, because a partial is a pure function of (spec,
// chunk index): the first result to arrive is the one counted.

// The lease policy.
const (
	// leaseTimeout bounds how long a silent remote worker holds a
	// chunk. Chunks take well under a second at the default chunk
	// size, so it is generous.
	leaseTimeout = time.Minute
	// leaseAttempts is how many remote grants a chunk may have. A
	// chunk that expires or is refused that often is presumed to break
	// workers deterministically, and retrying forever would hide it.
	leaseAttempts = 3
	// leaseBackoff delays a failed chunk's next remote grant, doubling
	// per prior attempt: 250 ms after the first, 500 ms after the
	// second. It keeps a crash-looping chunk from hot-cycling through
	// the workers.
	leaseBackoff = 250 * time.Millisecond
)

// clock is the lease table's one source of time: a Service reads the
// wall clock, and tests drive a manual one.
type clock interface {
	Now() time.Time
	// AfterFunc calls f once d has passed, on a goroutine that holds
	// no lock of the caller's; stop cancels the call and reports
	// whether it did so in time.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// errNotRunning answers a lease or a result for a job that is not
// leasing chunks: it is queued, loading its checkpoints, or terminal.
var errNotRunning = errors.New("fleetsvc: job is not leasing chunks")

// Chunk lease states.
const (
	chunkPending uint8 = iota
	chunkLeased
	chunkDone
)

type chunkLease struct {
	state     uint8
	attempts  int         // remote grants so far
	stop      func() bool // stops the timer that expires a remote lease; nil while leased locally
	notBefore time.Time   // backoff gate while pending after a remote failure
}

// leaseTable is one running job's chunk leases. It is guarded by the
// job's mu, which cond waits on; cond is broadcast whenever a chunk
// goes back to pending or the last one is done, and when the table
// fails or closes.
type leaseTable struct {
	clock  clock
	cond   *sync.Cond
	chunks []chunkLease
	low    int // no chunk below it is pending
	left   int // chunks not done

	err       error // a failure that ends the run, first one wins
	exhausted []int // chunks that used up their attempts, sorted
	cause     error // the first exhausted chunk's last failure
}

// newLeaseTable builds the table for a job whose checkpointed chunks
// are have: those start done, every other chunk pending.
func newLeaseTable(mu *sync.Mutex, clk clock, have []*fleet.ChunkPartial) *leaseTable {
	l := &leaseTable{clock: clk, cond: sync.NewCond(mu), chunks: make([]chunkLease, len(have))}
	for ci, cp := range have {
		if cp != nil {
			l.chunks[ci].state = chunkDone
		} else {
			l.left++
		}
	}
	return l
}

// failure is why the run cannot finish, or nil while it can.
func (l *leaseTable) failure() error {
	if l.err != nil {
		return l.err
	}
	if len(l.exhausted) > 0 {
		return fmt.Errorf("chunk(s) %v failed after exhausting lease attempts: %v", l.exhausted, l.cause)
	}
	return nil
}

// fail ends the run with err unless it failed already.
func (l *leaseTable) fail(err error) {
	if l.err == nil {
		l.err = err
	}
	l.cond.Broadcast()
}

// next returns the lowest pending chunk, or -1. A remote grant skips
// chunks still in their backoff at now; a local one (zero now) takes
// any pending chunk.
func (l *leaseTable) next(now time.Time) int {
	for l.low < len(l.chunks) && l.chunks[l.low].state != chunkPending {
		l.low++
	}
	for ci := l.low; ci < len(l.chunks); ci++ {
		c := &l.chunks[ci]
		if c.state == chunkPending && (now.IsZero() || !c.notBefore.After(now)) {
			return ci
		}
	}
	return -1
}

// grant leases a chunk to a remote worker, or returns -1 when none is
// eligible now. expire is called once the lease times out, with the
// chunk and the attempt it was granted as.
func (l *leaseTable) grant(expire func(ci, attempt int)) int {
	if l.failure() != nil {
		return -1
	}
	ci := l.next(l.clock.Now())
	if ci < 0 {
		return -1
	}
	c := &l.chunks[ci]
	c.state = chunkLeased
	c.attempts++
	attempt := c.attempts
	c.stop = l.clock.AfterFunc(leaseTimeout, func() { expire(ci, attempt) })
	return ci
}

// takeLocal leases the lowest pending chunk to a local worker, or
// returns -1 when none is pending.
func (l *leaseTable) takeLocal() int {
	ci := l.next(time.Time{})
	if ci >= 0 {
		l.chunks[ci].state = chunkLeased
	}
	return ci
}

// done marks chunk ci done and reports whether it was not already.
func (l *leaseTable) done(ci int) bool {
	c := &l.chunks[ci]
	if c.state == chunkDone {
		return false
	}
	if c.stop != nil {
		c.stop()
		c.stop = nil
	}
	c.state = chunkDone
	l.left--
	if l.left == 0 {
		l.cond.Broadcast()
	}
	return true
}

// requeue returns chunk ci to pending after its remote lease failed,
// behind a backoff, or exhausts it once its attempts are spent. A chunk
// that is not leased remotely is left alone: a local lease never fails
// this way, and a pending or done chunk has nothing to give back.
func (l *leaseTable) requeue(ci int, cause error) {
	c := &l.chunks[ci]
	if c.state != chunkLeased || c.stop == nil {
		return
	}
	c.stop()
	c.stop = nil
	c.state = chunkPending
	l.low = min(l.low, ci)
	if c.attempts >= leaseAttempts {
		if l.cause == nil {
			l.cause = cause
		}
		i, _ := slices.BinarySearch(l.exhausted, ci)
		l.exhausted = slices.Insert(l.exhausted, i, ci)
	} else {
		c.notBefore = l.clock.Now().Add(leaseBackoff << (c.attempts - 1))
	}
	l.cond.Broadcast()
}

// close stops every lease timer and wakes every waiter: the job ended
// or the service is stopping.
func (l *leaseTable) close() {
	for ci := range l.chunks {
		if stop := l.chunks[ci].stop; stop != nil {
			stop()
		}
	}
	l.cond.Broadcast()
}

// startLeases counts the chunks in have as loaded and opens the job's
// lease table over the rest. It returns errNotRunning if the job ended,
// or its context did, first.
func (j *job) startLeases(clk clock, have []*fleet.ChunkPartial) error {
	j.mu.Lock()
	if terminal(j.state) || j.ctx.Err() != nil {
		j.mu.Unlock()
		return errNotRunning
	}
	for ci, cp := range have {
		if cp != nil {
			j.partials[ci] = cp
			j.loaded++
			j.devices += j.chunkDevices(ci)
		}
	}
	j.leases = newLeaseTable(&j.mu, clk, have)
	j.mu.Unlock()
	j.notify()
	return nil
}

// dropLeases closes the job's lease table and lets it go. The caller
// holds j.mu.
func (j *job) dropLeases() {
	if j.leases != nil {
		j.leases.close()
		j.leases = nil
	}
}

// chunkDevices is the number of devices in chunk ci.
func (j *job) chunkDevices(ci int) int {
	return min(j.spec.ChunkSize, j.spec.N-ci*j.spec.ChunkSize)
}

// wait blocks until every chunk of the job is done and returns the
// partials to fold, or returns why they never will be.
func (j *job) wait() ([]*fleet.ChunkPartial, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		l := j.leases
		if l == nil {
			return nil, errNotRunning
		}
		if err := l.failure(); err != nil {
			return nil, err
		}
		if l.left == 0 {
			return j.partials, nil
		}
		l.cond.Wait()
	}
}

// takeLocal blocks until a chunk is pending and leases it to a local
// worker. ok is false once none will be: every chunk is done, the run
// failed, the job stopped leasing, or ctx is done. ctx is the one the
// local chunks run under, which a sibling chunk's failure cancels
// before the run fails.
func (j *job) takeLocal(ctx context.Context) (ci int, ok bool) {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if j.leases != nil {
			j.leases.cond.Broadcast()
		}
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		l := j.leases
		if l == nil || l.left == 0 || l.failure() != nil || ctx.Err() != nil {
			return 0, false
		}
		if ci := l.takeLocal(); ci >= 0 {
			return ci, true
		}
		l.cond.Wait()
	}
}

// lease grants a chunk to a remote worker; ok is false when none is
// eligible now.
func (j *job) lease() (ci int, ok bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.leases == nil {
		return 0, false, errNotRunning
	}
	ci = j.leases.grant(j.expire)
	return ci, ci >= 0, nil
}

// expire requeues chunk ci if its remote lease granted as attempt is
// still out when it times out.
func (j *job) expire(ci, attempt int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if l := j.leases; l != nil && l.chunks[ci].attempts == attempt {
		l.requeue(ci, fmt.Errorf("lease expired after %v", leaseTimeout))
	}
}

// refuse requeues chunk ci after a remote worker sent a result for it
// that does not validate.
func (j *job) refuse(ci int, cause error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.leases != nil {
		j.leases.requeue(ci, cause)
	}
}

// fail ends the job's run with err.
func (j *job) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.leases != nil {
		j.leases.fail(err)
	}
}

// needs reports whether chunk ci has no result yet.
func (j *job) needs(ci int) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.leases == nil {
		return false, errNotRunning
	}
	return j.leases.chunks[ci].state != chunkDone, nil
}

// complete counts chunk cp, already stored, as computed. The first
// result for a chunk is the one counted; a later one changes nothing.
func (j *job) complete(cp *fleet.ChunkPartial) error {
	j.mu.Lock()
	l := j.leases
	if l == nil {
		j.mu.Unlock()
		return errNotRunning
	}
	counted := l.done(cp.Chunk)
	if counted {
		j.partials[cp.Chunk] = cp
		j.computed++
		j.devices += j.chunkDevices(cp.Chunk)
	}
	j.mu.Unlock()
	if counted {
		j.notify()
	}
	return nil
}
