package apps

import (
	"capybara/internal/metrics"
	"capybara/internal/power"
	"capybara/internal/sim"
)

// Scratch bundles the reusable per-run state an application build
// otherwise allocates fresh: the observable recorder (whose sample
// slice grows to over a million timestamps in a gesture lifecycle
// unless Rec.DropSamples is set, as the fleet sets it) and optional
// trace/event-log buffers.
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
	// Memo is ignored: no build reads it. It survives only because
	// perfbench/layers.go:66 still assigns it; remove it with that line.
	Memo *power.SegmentCache
}

// Reset clears the run state for the next device, keeping only backing
// storage.
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
