package sim

import "capybara/internal/units"

// HookKind labels the simulator events an Observer can watch.
type HookKind int

const (
	// HookChargeSegment: one analytic charge segment completed, observed
	// BEFORE the passive tick for the same span — V0→V1 is the pure
	// charge trajectory under an unchanged configuration, which is what
	// a numerical cross-check must reproduce.
	HookChargeSegment HookKind = iota
	// HookSpan: a span of simulated time (charging, off, or idle)
	// finished, including its passive tick. State is fully settled.
	HookSpan
	// HookDrain: a load drain finished (OK reports whether the full
	// duration completed; false is a brownout).
	HookDrain
	// HookReconfig: software reprogrammed the switch array.
	HookReconfig
	// HookBoot: the MCU is booting from the charged buffer.
	HookBoot
)

func (k HookKind) String() string {
	switch k {
	case HookChargeSegment:
		return "charge-segment"
	case HookSpan:
		return "span"
	case HookDrain:
		return "drain"
	case HookReconfig:
		return "reconfig"
	case HookBoot:
		return "boot"
	default:
		return "hook?"
	}
}

// HookEvent is one observed simulator event: the span it covers and the
// active-set voltage at its ends.
type HookEvent struct {
	Kind   HookKind
	T0, T1 units.Seconds
	V0, V1 units.Voltage
	// OK is event-specific: target reached (charge segment), drain
	// completed without brownout (drain); true otherwise.
	OK bool
}

// Observer receives fine-grained simulator callbacks. It exists for
// correctness tooling (the chaos harness checks its invariant registry
// after every event and schedules faults at observed instants); a nil
// Device.Obs costs one pointer test per event.
type Observer interface {
	Observe(d *Device, e HookEvent)
}

// observe delivers one event to d.Obs, which the caller has checked is
// non-nil: the check sits at the call site so an unobserved device
// evaluates no event arguments.
func (d *Device) observe(kind HookKind, t0, t1 units.Seconds, v0, v1 units.Voltage, ok bool) {
	d.Obs.Observe(d, HookEvent{Kind: kind, T0: t0, T1: t1, V0: v0, V1: v1, OK: ok})
}
