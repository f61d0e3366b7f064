package fleet

import (
	"math"
	"sort"
	"sync"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/units"
)

// The event-free prefix. A device's only input of its own is its event
// schedule: everything else (application, variant, scenario trace,
// banks) is its cohort's. Until its first event the device observes no
// event, so it runs its cohort's one polling trajectory, bit for bit,
// whatever its schedule and horizon (DESIGN.md §7, "Resuming from the
// event-free prefix"). That trajectory does not depend on the job's
// scale, N or chunk size either, nor on the seed unless a PWM or
// blackout trace is read, so a Prefixes store keeps the states devices
// passed through at fixed simulated-time marks before their first
// events per trajectory, and a later device on the same trajectory, of
// any job, restores the latest one taken strictly before its own first
// event.

// trajectory keys one event-free trajectory: the inputs, beyond its
// schedule, that a device's run up to its first event is a function
// of. cohortGrid fixes it once per cohort (prefixKey).
type trajectory struct {
	app     string
	variant core.Variant
	// scenario and seed are set only where the cohort's trace is read:
	// a PWM or blackout cohort of a variant other than Continuous.
	scenario Scenario
	seed     int64
	seeded   bool
}

// prefixKey returns the trajectory of cohort c, whose trace (if any)
// cohortGrid drew from seed. A Continuous device never reads its source,
// so its trajectory is its application's Steady one under every
// scenario; a Steady cohort reads no trace.
func prefixKey(c Cohort, seed int64) trajectory {
	k := trajectory{app: c.App, variant: c.Variant}
	if c.Variant != core.Continuous && c.Scenario != Steady {
		k.scenario, k.seed, k.seeded = c.Scenario, seed, true
	}
	return k
}

// Prefixes holds event-free prefix snapshots keyed by trajectory, one
// list per key in clock order. It is safe for concurrent use: a listed
// snapshot never changes (core.Instance.Restore only copies out of it),
// so a reader searches a copy of a list's header without the lock, and
// a writer only appends a snapshot whose clock is past the list's last.
//
// A Job.Compute holds its seed while it runs, and the lists of a seed
// go once no Compute holds it; the seed-free lists stay as long as the
// store. A store shared by every job of a daemon therefore does not grow
// with the number of seeds it has served.
type Prefixes struct {
	mu    sync.Mutex
	lists map[trajectory][]core.State
	held  map[int64]int // running Computes per seed
}

// NewPrefixes returns an empty store.
func NewPrefixes() *Prefixes {
	return &Prefixes{lists: make(map[trajectory][]core.State), held: make(map[int64]int)}
}

// snapshots returns k's list as it stands. The caller may read it
// without the lock: later appends never write an element it holds.
func (p *Prefixes) snapshots(k trajectory) []core.State {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lists[k]
}

// add appends s to k's list if its clock is past the list's last
// snapshot; a device that lost the race to the same mark adds nothing.
func (p *Prefixes) add(k trajectory, s core.State) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.lists[k]
	if n := len(l); n == 0 || s.Dev.Now > l[n-1].Dev.Now {
		p.lists[k] = append(l, s)
	}
}

// hold registers a running Compute of seed.
func (p *Prefixes) hold(seed int64) {
	p.mu.Lock()
	p.held[seed]++
	p.mu.Unlock()
}

// release ends a Compute hold registered for seed, and drops the
// seed's lists once no Compute holds it.
func (p *Prefixes) release(seed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.held[seed]--
	if p.held[seed] > 0 {
		return
	}
	delete(p.held, seed)
	// order-independent: each key is deleted or kept on its own.
	for k := range p.lists {
		if k.seeded && k.seed == seed {
			delete(p.lists, k)
		}
	}
}

// markSpacing returns a cohort's snapshot spacing: an eighth of its
// application's mean event inter-arrival time. A device re-simulates
// about one spacing of prefix at most (more where one charge passes
// several marks), and a trajectory whose store has run k of its devices
// holds about 8·ln k snapshots.
func markSpacing(mean units.Seconds) units.Seconds { return mean / 8 }

// runShared runs run, a device on trajectory k, to its horizon,
// resuming from and extending k's snapshots in ws's store. step is the
// trajectory's mark spacing.
//
// The device restores the latest snapshot taken before its first event,
// if any. While its clock is before its first event it stops at each
// mark past the trajectory's last snapshot (the first task-attempt
// boundary at or after the mark) and adds its state, so the list stays
// in clock order. A device with a trace, log or observer attached does
// neither: those record the prefix as it runs.
func (ws *Scratch) runShared(run *apps.Run, k trajectory, step units.Seconds) error {
	inst, dev := run.Inst, run.Inst.Dev
	if dev.Trace != nil || dev.Log != nil || dev.Obs != nil {
		return run.Execute()
	}
	first := run.Schedule.Events[0].At
	empty := func() {
		// The recorder is not in a snapshot: it must be as empty as it
		// is on a fresh device. Before its first event a device records
		// no report, and the fleet's recorder drops samples.
		if !ws.scr.Rec.Empty() {
			panic("fleet: a device recorded an observable before its first event")
		}
	}
	snaps := ws.pre.snapshots(k)
	if i := sort.Search(len(snaps), func(i int) bool { return snaps[i].Dev.Now >= first }); i > 0 {
		empty()
		inst.Restore(&snaps[i-1])
	}
	for {
		at := step
		if snaps = ws.pre.snapshots(k); len(snaps) > 0 {
			last := snaps[len(snaps)-1].Dev.Now
			at = step * units.Seconds(math.Floor(float64(last/step))+1)
		}
		if at >= first {
			break
		}
		more, err := inst.Engine.RunUntil(at, run.Horizon)
		if err != nil || !more {
			return err
		}
		if dev.Now() >= first {
			break
		}
		empty()
		ws.pre.add(k, inst.Save())
	}
	return run.Execute()
}
