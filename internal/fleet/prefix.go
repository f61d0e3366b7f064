package fleet

import (
	"math"
	"sort"

	"capybara/internal/apps"
	"capybara/internal/units"
)

// The event-free prefix. A device's only input of its own is its event
// schedule: everything else (application, variant, scenario trace,
// banks) is its cohort's. Until its first event the device observes no
// event, so it runs its cohort's one polling trajectory, bit for bit,
// whatever its schedule and horizon (DESIGN.md §7, "Resuming from the
// event-free prefix"). A worker's Scratch therefore keeps, per cohort,
// the states its devices passed through at fixed simulated-time marks
// before their first events, and a later device of the cohort restores
// the latest one taken strictly before its own first event.

// markSpacing returns a cohort's snapshot spacing: an eighth of its
// application's mean event inter-arrival time. A device re-simulates
// about one spacing of prefix at most (more where one charge passes
// several marks), and a cohort whose worker runs k of its devices holds
// about 8·ln k snapshots.
func markSpacing(mean units.Seconds) units.Seconds { return mean / 8 }

// runShared runs run, a device of cohort ci, to its horizon, resuming
// from and extending the cohort's snapshots on ws. step is the cohort's
// mark spacing.
//
// The device restores the latest snapshot taken before its first event,
// if any. While its clock is before its first event it stops at each
// mark past the cohort's last snapshot (the first task-attempt boundary
// at or after the mark) and appends its state, so the list stays in
// clock order. A device with a trace, log or observer attached does
// neither: those record the prefix as it runs.
func (ws *Scratch) runShared(run *apps.Run, ci int, step units.Seconds) error {
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
	snaps := ws.snaps[ci]
	if k := sort.Search(len(snaps), func(i int) bool { return snaps[i].Dev.Now >= first }); k > 0 {
		empty()
		inst.Restore(&snaps[k-1])
	}
	for {
		at := step
		if n := len(ws.snaps[ci]); n > 0 {
			last := ws.snaps[ci][n-1].Dev.Now
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
		ws.snaps[ci] = append(ws.snaps[ci], inst.Save())
	}
	return run.Execute()
}
