package apps

import (
	"reflect"
	"testing"

	"capybara/internal/core"
)

// TestScratchReuseIdentical is the recycling soundness property the
// fleet engine depends on: running every application through one dirty,
// repeatedly-Reset Scratch (like a fleet worker's) yields exactly the
// observables of fresh allocation.
func TestScratchReuseIdentical(t *testing.T) {
	scr := &Scratch{}
	for round := 0; round < 2; round++ { // round 1 reuses dirty state
		for _, name := range SpecNames() {
			spec, _ := SpecByName(name)
			sched := shortSchedule(spec, 6)
			for _, v := range []core.Variant{core.Fixed, core.CapyR, core.CapyP} {
				fresh := mustRun(t, spec, v, sched)

				scr.Reset()
				run, err := spec.Build(v, sched, nil, scr)
				if err != nil {
					t.Fatalf("%s/%v scratch build: %v", name, v, err)
				}
				if run.Rec != &scr.Rec {
					t.Fatalf("%s/%v: scratch recorder not wired in", name, v)
				}
				if err := run.Execute(); err != nil {
					t.Fatalf("%s/%v scratch execute: %v", name, v, err)
				}

				if got, want := run.Accuracy(), fresh.Accuracy(); got != want {
					t.Errorf("%s/%v round %d: accuracy %+v, fresh %+v", name, v, round, got, want)
				}
				if got, want := run.Rec.Latencies(), fresh.Rec.Latencies(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v round %d: latencies %v, fresh %v", name, v, round, got, want)
				}
				if got, want := run.Rec.Samples(), fresh.Rec.Samples(); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%v round %d: %d samples vs fresh %d", name, v, round, len(got), len(want))
				}
			}
		}
	}
}
