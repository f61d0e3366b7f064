package apps

import (
	"capybara/internal/metrics"
	"capybara/internal/power"
	"capybara/internal/sim"
)

// Scratch bundles the reusable per-run state an application build
// otherwise allocates fresh: the observable recorder (whose sample
// slice grows to over a million timestamps in a gesture lifecycle
// unless Rec.DropSamples is set, as the fleet sets it), optional
// trace/event-log buffers, and the charge-solve memo cache.
//
// The fleet engine keeps one Scratch per worker in a sync.Pool and
// calls Reset between devices, so per-device cost is simulation state,
// not construction. Passing nil to the constructors preserves the
// original allocate-fresh behaviour.
//
// Reuse is sound because Reset restores every container to its empty
// state (keeping only backing capacity) and the simulator never reads
// a container before writing it; the determinism golden tests
// (fleet, experiments) run entirely through recycled scratch.
type Scratch struct {
	// Rec records the run's observables. Constructors wire &Rec into
	// the task closures instead of allocating a Recorder.
	Rec metrics.Recorder
	// Trace and Log are recycled buffers for callers that want a
	// voltage trace or device timeline per run; the constructors do not
	// wire them automatically (fleet runs neither — pass &Trace as the
	// trace argument to use it).
	Trace sim.Trace
	Log   sim.EventLog
	// Memo, when non-nil, is attached to the built instance in place of
	// a fresh per-instance cache; nil disables memoization for the
	// instance entirely. Either way results are bit-identical to the
	// uncached solver (see power/memo.go) — only speed changes.
	Memo *power.SegmentCache
}

// Reset clears the run state for the next device. Backing storage and
// the memo cache survive: stale memo entries can only produce
// bit-identical replays, never wrong results.
func (s *Scratch) Reset() {
	s.Rec.Reset()
	s.Trace.Reset()
	s.Log.Reset()
}

// scratchRecorder returns the recorder an application build should wire
// into its task closures: the scratch's recycled one, or a fresh
// allocation when building without scratch.
func scratchRecorder(s *Scratch) *metrics.Recorder {
	if s != nil {
		return &s.Rec
	}
	return &metrics.Recorder{}
}
