package task

import (
	"errors"
	"testing"

	"capybara/internal/units"
)

// brownout drains far more than the test bank stores, so the attempt
// dies mid-task after its earlier operations already consumed energy.
func brownout(c *Ctx) { c.drain(30*units.MilliWatt, 10) }

// TestAlternatingFailuresCreditTheRightTask runs two tasks that hand
// control to each other and each brown out mid-task on chosen
// attempts. Every success and failure must land on its own task's
// Profile entry, and every failure must count one restart: with one
// recover per run segment and the profile pointer cached per task,
// a failure or success credited to the wrong task would show here.
func TestAlternatingFailuresCreditTheRightTask(t *testing.T) {
	failA := map[int]bool{2: true, 3: true}
	failB := map[int]bool{1: true, 3: true}
	var triesA, triesB, doneA int
	prog := MustProgram("a",
		&Task{Name: "a", Run: func(c *Ctx) Next {
			triesA++
			c.Compute(1000)
			if failA[triesA] {
				brownout(c)
			}
			c.SetWord("a.done", uint64(triesA))
			if doneA++; doneA == 3 {
				return Halt
			}
			return "b"
		}},
		&Task{Name: "b", Run: func(c *Ctx) Next {
			triesB++
			c.Compute(1000)
			if failB[triesB] {
				brownout(c)
			}
			return "a"
		}},
	)
	// Attempts: a1 ok, b1 fail, b2 ok, a2 fail, a3 fail, a4 ok, b3 fail,
	// b4 ok, a5 ok (halt).
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if triesA != 5 || triesB != 4 {
		t.Fatalf("attempts a=%d b=%d, want 5 and 4", triesA, triesB)
	}
	for name, want := range map[string][2]int{"a": {3, 2}, "b": {2, 2}} {
		p := e.Profile[name]
		if p == nil {
			t.Fatalf("no profile for %s", name)
		}
		if p.Runs != want[0] || p.Failures != want[1] {
			t.Errorf("%s: runs %d failures %d, want %d and %d", name, p.Runs, p.Failures, want[0], want[1])
		}
		if p.Time <= 0 || p.Energy <= 0 {
			t.Errorf("%s: successful runs accumulated time %v energy %v", name, p.Time, p.Energy)
		}
	}
	if e.Restarts != 4 {
		t.Fatalf("restarts = %d, want 4", e.Restarts)
	}
	// Only a's successful attempts committed their staged write.
	if got := e.Dev.NV.WordOr("a.done", 0); got != 5 {
		t.Fatalf("committed a.done = %d, want 5", got)
	}
}

// TestSuccessAfterOtherTaskFailureCreditedToIt: task b fails on the
// last attempt of one Run, the durable task pointer then moves to a,
// and a's success on the next Run must be credited to a. The failure
// left b's profile entry cached; a stale cache would charge a's run
// to b.
func TestSuccessAfterOtherTaskFailureCreditedToIt(t *testing.T) {
	prog := MustProgram("b",
		&Task{Name: "a", Run: func(c *Ctx) Next {
			c.Compute(1000)
			return Halt
		}},
		&Task{Name: "b", Run: func(c *Ctx) Next {
			c.Compute(1000)
			brownout(c)
			return "a"
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	// With the bank above the boot threshold, a Run with a one-nanosecond
	// horizon boots at once and makes exactly one attempt, which fails.
	e.Dev.Store().SetVoltage(2.45)
	if err := e.Run(e.Dev.Now() + 1e-9); err != nil {
		t.Fatal(err)
	}
	if e.Profile["b"] == nil {
		t.Fatal("the first Run made no attempt")
	}
	if e.Restarts != 1 || e.Profile["b"].Failures != 1 {
		t.Fatalf("after one failed attempt: restarts %d, b %+v", e.Restarts, *e.Profile["b"])
	}
	e.Dev.NV.SetBlob(nvCurrentTask, []byte("a"))
	if err := e.Run(1e6); err != nil {
		t.Fatal(err)
	}
	if a := e.Profile["a"]; a == nil || a.Runs != 1 || a.Failures != 0 {
		t.Fatalf("a's profile = %+v, want one run", a)
	}
	if b := e.Profile["b"]; b.Runs != 0 || b.Failures != 1 {
		t.Fatalf("b's profile = %+v, want only the failure", *b)
	}
	if e.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", e.Restarts)
	}
}

// TestForeignPanicEscapesRun: a panic from a task body that is not a
// power failure must leave Engine.Run with its value unchanged, even
// after the engine has already recovered a power failure in the same
// Run, and must not be counted as a restart.
func TestForeignPanicEscapesRun(t *testing.T) {
	sentinel := errors.New("task body bug")
	tries := 0
	prog := MustProgram("t",
		&Task{Name: "t", Run: func(c *Ctx) Next {
			tries++
			c.Compute(1000)
			if tries == 1 {
				brownout(c)
			}
			panic(sentinel)
		}},
	)
	e := newTestEngine(t, 10*units.MilliWatt, prog)
	defer func() {
		r := recover()
		if err, ok := r.(error); !ok || err != sentinel {
			t.Fatalf("Run panicked with %v, want the task's own value", r)
		}
		if tries != 2 || e.Restarts != 1 {
			t.Fatalf("attempts %d restarts %d, want 2 and 1", tries, e.Restarts)
		}
		if p := e.Profile["t"]; p.Runs != 0 || p.Failures != 1 {
			t.Fatalf("profile = %+v, want only the power failure", *p)
		}
	}()
	_ = e.Run(1e6)
	t.Fatal("Run returned instead of panicking")
}
