package env

import (
	"math"
	"math/rand"
	"testing"

	"capybara/internal/units"
)

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson(rand.New(rand.NewSource(7)), 50, 30, 1)
	b := Poisson(rand.New(rand.NewSource(7)), 50, 30, 1)
	if len(a.Events) != 50 || len(b.Events) != 50 {
		t.Fatalf("event counts: %d, %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
}

func TestPoissonNonOverlapping(t *testing.T) {
	s := Poisson(rand.New(rand.NewSource(1)), 200, 5, 1)
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].At < s.Events[i-1].End() {
			t.Fatalf("events %d and %d overlap: %v, %v", i-1, i, s.Events[i-1], s.Events[i])
		}
	}
}

func TestPoissonMeanInterarrival(t *testing.T) {
	mean := units.Seconds(144) // TA's 50 events over 120 min
	s := Poisson(rand.New(rand.NewSource(3)), 2000, mean, 1)
	got := s.MeanInterarrival()
	if math.Abs(float64(got)-float64(mean))/float64(mean) > 0.1 {
		t.Fatalf("empirical mean = %v, want ≈%v", got, mean)
	}
	if (Schedule{}).MeanInterarrival() != 0 {
		t.Error("empty schedule mean should be 0")
	}
}

func TestActiveAt(t *testing.T) {
	s := Schedule{Events: []Event{
		{Index: 0, At: 10, Window: 2},
		{Index: 1, At: 20, Window: 2},
	}}
	if _, ok := s.ActiveAt(9.9); ok {
		t.Error("no event should be active before the first")
	}
	ev, ok := s.ActiveAt(11)
	if !ok || ev.Index != 0 {
		t.Errorf("ActiveAt(11) = %v, %v", ev, ok)
	}
	if _, ok := s.ActiveAt(12.5); ok {
		t.Error("gap between events should be inactive")
	}
	ev, ok = s.ActiveAt(20)
	if !ok || ev.Index != 1 {
		t.Errorf("ActiveAt(20) = %v, %v (start is inclusive)", ev, ok)
	}
	if _, ok := s.ActiveAt(22); ok {
		t.Error("window end should be exclusive")
	}
}

func TestHorizon(t *testing.T) {
	s := Schedule{Events: []Event{{At: 10, Window: 2}, {At: 20, Window: 5}}}
	if got := s.Horizon(); got != 25 {
		t.Fatalf("Horizon = %v, want 25", got)
	}
	if got := (Schedule{}).Horizon(); got != 0 {
		t.Fatalf("empty horizon = %v", got)
	}
}

func TestPendulumSenseOutcomes(t *testing.T) {
	s := Schedule{Events: []Event{{Index: 0, At: 100, Window: 1, Value: 1}}}
	p := NewPendulum(s)

	if !p.ObjectPresent(100.5) || p.ObjectPresent(99) {
		t.Fatal("ObjectPresent window wrong")
	}

	// Sensing before the swing: missed.
	if out, _ := p.Sense(50, 0.25); out != GestureMissed {
		t.Errorf("early sense = %v", out)
	}
	// Sensing promptly: correct classification.
	out, ev := p.Sense(100.1, 0.25)
	if out != GestureCorrect || ev.Index != 0 {
		t.Errorf("prompt sense = %v, %v", out, ev)
	}
	// Sensing after the classification deadline (40 % of 1 s) but with
	// a full window remaining: misclassified.
	if out, _ := p.Sense(100.5, 0.25); out != GestureMisclassified {
		t.Errorf("late sense = %v", out)
	}
	// Sensing so late the 250 ms window does not fit: proximity only.
	if out, _ := p.Sense(100.9, 0.25); out != GestureProximityOnly {
		t.Errorf("too-late sense = %v", out)
	}
}

func TestGestureOutcomeStrings(t *testing.T) {
	for _, o := range []GestureOutcome{GestureMissed, GestureProximityOnly, GestureMisclassified, GestureCorrect} {
		if o.String() == "" {
			t.Errorf("outcome %d has empty string", o)
		}
	}
}

func TestThermalPlant(t *testing.T) {
	s := Schedule{Events: []Event{
		{Index: 0, At: 1000, Window: 30, Value: 3},  // over-temperature
		{Index: 1, At: 2000, Window: 30, Value: -3}, // under-temperature
	}}
	th := NewThermal(s)

	// Benign operation stays in range at every phase of the wobble.
	for i := 0; i < 600; i++ {
		tt := units.Seconds(i)
		if tt >= 1000 {
			break
		}
		if temp := th.Temperature(tt); th.OutOfRange(temp) {
			t.Fatalf("benign temperature out of range at %v: %g", tt, temp)
		}
	}
	// During events the reading is out of range on the correct side.
	if temp := th.Temperature(1010); temp <= th.High {
		t.Fatalf("over-temp event reads %g, want > %g", temp, th.High)
	}
	if temp := th.Temperature(2010); temp >= th.Low {
		t.Fatalf("under-temp event reads %g, want < %g", temp, th.Low)
	}
	if !th.OutOfRange(th.Temperature(1010)) || !th.OutOfRange(th.Temperature(2010)) {
		t.Fatal("OutOfRange disagrees with Temperature")
	}
}

func TestEventStringer(t *testing.T) {
	e := Event{Index: 3, At: 42, Window: 1}
	if e.String() == "" || e.End() != 43 {
		t.Fatalf("Event helpers broken: %v, end %v", e, e.End())
	}
}
