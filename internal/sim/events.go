package sim

import (
	"fmt"

	"capybara/internal/units"
)

// EventKind labels one entry of a device's event log.
type EventKind int

const (
	// EventBoot: the device powered up.
	EventBoot EventKind = iota
	// EventBrownout: the buffer emptied under load.
	EventBrownout
	// EventReconfig: software reprogrammed the switch array.
	EventReconfig
	// EventRevert: a latch expired and a switch fell back to its
	// default during an outage.
	EventRevert
	// EventChargeDone: a charge pause completed.
	EventChargeDone
)

func (k EventKind) String() string {
	switch k {
	case EventBoot:
		return "boot"
	case EventBrownout:
		return "brownout"
	case EventReconfig:
		return "reconfig"
	case EventRevert:
		return "revert"
	case EventChargeDone:
		return "charge-done"
	default:
		return "unknown"
	}
}

// Event is one timeline entry. Details are carried as typed fields and
// formatted lazily by Detail/String: the recording paths run inside the
// simulator's hot loops, so an eager fmt.Sprintf per event would charge
// every run for strings that only debugging reads.
type Event struct {
	T    units.Seconds
	Kind EventKind
	// Mask is the active-bank mask after a reconfiguration or revert.
	Mask uint64
	// V and Elapsed are the reached voltage and charge duration of a
	// charge-done event.
	V       units.Voltage
	Elapsed units.Seconds
}

// Detail renders the kind-specific payload, or "" when the kind carries
// none.
func (e Event) Detail() string {
	switch e.Kind {
	case EventReconfig, EventRevert:
		return fmt.Sprintf("mask %#b", e.Mask)
	case EventChargeDone:
		return fmt.Sprintf("%v after %v", e.V, e.Elapsed)
	default:
		return ""
	}
}

func (e Event) String() string {
	if d := e.Detail(); d != "" {
		return fmt.Sprintf("%v %s (%s)", e.T, e.Kind, d)
	}
	return fmt.Sprintf("%v %s", e.T, e.Kind)
}

// EventLog records a bounded device timeline. When the log is full the
// oldest entries are discarded (the tail of a long run is usually what
// matters when debugging).
type EventLog struct {
	// Max bounds the log; zero means 4096.
	Max    int
	events []Event
	// Dropped counts discarded entries.
	Dropped int
}

func (l *EventLog) limit() int {
	if l.Max > 0 {
		return l.Max
	}
	return 4096
}

func (l *EventLog) add(e Event) {
	if l == nil {
		return
	}
	if len(l.events) >= l.limit() {
		half := len(l.events) / 2
		l.Dropped += half
		l.events = append(l.events[:0], l.events[half:]...)
	}
	l.events = append(l.events, e)
}

// Events returns the recorded timeline in order.
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}
