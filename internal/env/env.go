// Package env models the experimental environments that drive the
// paper's applications with external events: the servo-driven pendulum
// rig (GRC and CSR, Fig. 7), the heater/cooler thermal plant (TA), and
// the Poisson event schedules the evaluation draws (§6.2).
//
// Everything is deterministic given a seed, so experiments regenerate
// bit-identically.
package env

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"capybara/internal/units"
)

// Event is one external stimulus: it becomes observable at At and
// remains observable for Window.
type Event struct {
	// Index is the event's ordinal in its schedule.
	Index int
	// At is when the stimulus begins.
	At units.Seconds
	// Window is how long the stimulus remains observable (the
	// pendulum's pass over the sensor, the temperature excursion).
	Window units.Seconds
	// Value carries event-specific data: gesture direction (±1),
	// temperature excursion in °C, magnet field polarity.
	Value float64
}

// End returns the time the stimulus stops being observable.
func (e Event) End() units.Seconds { return e.At + e.Window }

func (e Event) String() string {
	return fmt.Sprintf("event %d @ %v (+%v)", e.Index, e.At, e.Window)
}

// Schedule is a time-ordered list of events.
type Schedule struct {
	Events []Event
}

// Poisson draws n events with exponentially-distributed inter-arrival
// times of the given mean, each observable for roughly window (each
// event's window is jittered ±20 % — real pendulum swings and thermal
// excursions are not identical). Events never overlap: arrivals are
// spaced at least one window apart, matching the physical rigs (the
// pendulum must return before it can swing again). Values alternate
// deterministic pseudo-random directions in {−1, +1}.
func Poisson(rng *rand.Rand, n int, mean, window units.Seconds) Schedule {
	events := make([]Event, 0, n)
	t := units.Seconds(0)
	prevWindow := units.Seconds(0)
	for i := 0; i < n; i++ {
		w := units.Seconds(float64(window) * (0.8 + 0.4*rng.Float64()))
		gap := units.Seconds(rng.ExpFloat64() * float64(mean))
		// The previous swing must complete before the next can start.
		if gap < prevWindow {
			gap = prevWindow
		}
		prevWindow = w
		t += gap
		val := 1.0
		if rng.Intn(2) == 0 {
			val = -1
		}
		events = append(events, Event{Index: i, At: t, Window: w, Value: val})
	}
	return Schedule{Events: events}
}

// Horizon returns the time by which every event has ended.
func (s Schedule) Horizon() units.Seconds {
	var h units.Seconds
	for _, e := range s.Events {
		if e.End() > h {
			h = e.End()
		}
	}
	return h
}

// ActiveAt returns the event observable at time t, if any.
func (s Schedule) ActiveAt(t units.Seconds) (Event, bool) {
	// Events are ordered and non-overlapping; binary-search the first
	// event ending after t.
	i := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].End() > t })
	if i < len(s.Events) && s.Events[i].At <= t {
		return s.Events[i], true
	}
	return Event{}, false
}

// activeAtHint is ActiveAt with a cursor: it walks hint to the first
// event ending after t and stores it back. Sensing rigs query with a
// near-monotonic clock, so the walk is amortized O(1) where the binary
// search pays its full log on every call. The result is identical to
// ActiveAt for any t and any starting hint.
func (s Schedule) activeAtHint(t units.Seconds, hint *int) (Event, bool) {
	n := len(s.Events)
	i := *hint
	if i > n {
		i = n
	}
	for i > 0 && s.Events[i-1].End() > t {
		i--
	}
	for i < n && s.Events[i].End() <= t {
		i++
	}
	*hint = i
	if i < n && s.Events[i].At <= t {
		return s.Events[i], true
	}
	return Event{}, false
}

// NextAfter returns the first event starting at or after t, if any.
func (s Schedule) NextAfter(t units.Seconds) (Event, bool) {
	i := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].At >= t })
	if i < len(s.Events) {
		return s.Events[i], true
	}
	return Event{}, false
}

// MeanInterarrival returns the empirical mean gap between event starts.
func (s Schedule) MeanInterarrival() units.Seconds {
	if len(s.Events) < 2 {
		return 0
	}
	span := s.Events[len(s.Events)-1].At - s.Events[0].At
	return span / units.Seconds(len(s.Events)-1)
}

// Pendulum is the GRC/CSR rig: a servo swings a rigid pendulum (with a
// gesture target or magnet) over the sensors at each scheduled event.
// During an event window the object is observable; a gesture is
// correctly classifiable only if gesture sensing starts early enough in
// the swing (§6.2: "gesture motions are misclassified when the
// proximity detection occurs too late in the pendulum's swing").
type Pendulum struct {
	Schedule Schedule
	// ClassifyBy is the fraction of the window within which gesture
	// sensing must begin for the direction to be distinguishable.
	ClassifyBy float64
	// FlakyEvery models intrinsic sensor imperfection: every
	// FlakyEvery-th event fails to decode even under perfect timing
	// (the paper's imperfect continuous-power accuracy, §6.2:
	// "the APDS sensor is activated following a proximity detection
	// but does not report a gesture"). Zero disables flakiness.
	FlakyEvery int

	// cur is the event cursor for the rig's near-monotonic queries.
	cur int
}

// NewPendulum builds the rig with the default classification deadline
// (the first 40 % of the swing).
func NewPendulum(s Schedule) *Pendulum {
	return &Pendulum{Schedule: s, ClassifyBy: 0.4}
}

// ObjectPresent reports whether the pendulum is over the board at t —
// what the phototransistor (GRC) or magnetometer (CSR) observes.
func (p *Pendulum) ObjectPresent(t units.Seconds) bool {
	_, ok := p.Schedule.activeAtHint(t, &p.cur)
	return ok
}

// GestureOutcome classifies a gesture-sensing operation that runs over
// [start, start+opTime].
type GestureOutcome int

const (
	// GestureMissed: no object was present when sensing started.
	GestureMissed GestureOutcome = iota
	// GestureProximityOnly: the sensor was activated while the object
	// was present, but the swing ended before a full gesture window
	// was observed — the APDS reports nothing (§6.2 "Proximity Only").
	GestureProximityOnly
	// GestureMisclassified: a gesture was decoded but sensing started
	// too late in the swing to distinguish direction.
	GestureMisclassified
	// GestureCorrect: the direction was decoded correctly.
	GestureCorrect
)

func (g GestureOutcome) String() string {
	switch g {
	case GestureCorrect:
		return "correct"
	case GestureMisclassified:
		return "misclassified"
	case GestureProximityOnly:
		return "proximity-only"
	default:
		return "missed"
	}
}

// Sense classifies a gesture-sensing operation beginning at start and
// lasting opTime. It returns the outcome and the event observed (for
// correct and misclassified outcomes).
func (p *Pendulum) Sense(start, opTime units.Seconds) (GestureOutcome, Event) {
	ev, ok := p.Schedule.activeAtHint(start, &p.cur)
	if !ok {
		return GestureMissed, Event{}
	}
	if start+opTime > ev.End() {
		return GestureProximityOnly, ev
	}
	if p.FlakyEvery > 0 && (ev.Index+1)%p.FlakyEvery == 0 {
		return GestureProximityOnly, ev
	}
	deadline := ev.At + units.Seconds(p.ClassifyBy*float64(ev.Window))
	if start > deadline {
		return GestureMisclassified, ev
	}
	return GestureCorrect, ev
}

// Thermal is the TA rig: a heatsink whose temperature a control loop
// holds inside [Low, High], except during scheduled alarm events when
// it is pushed out of range by each event's Value (°C beyond the
// nearest bound).
type Thermal struct {
	Schedule  Schedule
	Low, High float64
	// Period is the benign oscillation period of the control loop.
	Period units.Seconds

	// cur is the event cursor for the rig's near-monotonic queries.
	cur int
}

// NewThermal builds the default plant: 20–30 °C band with a 60 s
// control-loop wobble.
func NewThermal(s Schedule) *Thermal {
	return &Thermal{Schedule: s, Low: 20, High: 30, Period: 60}
}

// Temperature returns the heatsink temperature at t.
func (th *Thermal) Temperature(t units.Seconds) float64 {
	mid := (th.Low + th.High) / 2
	amp := (th.High - th.Low) / 2 * 0.8 // stays inside the band
	base := mid + amp*math.Sin(2*math.Pi*float64(t)/float64(th.Period))
	if ev, ok := th.Schedule.activeAtHint(t, &th.cur); ok {
		if ev.Value >= 0 {
			return th.High + 2 + ev.Value
		}
		return th.Low - 2 + ev.Value
	}
	return base
}

// OutOfRange reports whether a reading indicates an alarm.
func (th *Thermal) OutOfRange(reading float64) bool {
	return reading < th.Low || reading > th.High
}
