package metrics

import (
	"fmt"
	"sort"

	"capybara/internal/units"
)

// GapClass classifies one inter-sample interval, matching Fig. 11's
// three colors.
type GapClass int

const (
	// BackToBack intervals are sub-second bursts of limited utility
	// (Fig. 11's gray bars).
	BackToBack GapClass = iota
	// Clean intervals contain no events: nothing was missed (green).
	Clean
	// MissedEvent intervals contain one or more events that were
	// necessarily missed while the device was not sampling (red).
	MissedEvent
)

func (g GapClass) String() string {
	switch g {
	case BackToBack:
		return "back-to-back"
	case Clean:
		return "clean"
	default:
		return "missed-event"
	}
}

// BackToBackThreshold separates burst sampling from meaningful
// intervals (Fig. 11 grays out sub-second gaps).
const BackToBackThreshold units.Seconds = 1.0

// Gap is one inter-sample interval.
type Gap struct {
	Start, Duration units.Seconds
	Class           GapClass
}

// Window is a time span [Start, End) during which an event was
// observable.
type Window struct {
	Start, End units.Seconds
}

// AnalyzeGaps computes the intervals between consecutive samples and
// classifies each: back-to-back if shorter than BackToBackThreshold,
// missed-event if at least one event window fell entirely inside the
// interval (so no sample could have observed it), clean otherwise.
func AnalyzeGaps(samples []units.Seconds, events []Window) []Gap {
	if len(samples) < 2 {
		return nil
	}
	sorted := make([]units.Seconds, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	gaps := make([]Gap, 0, len(sorted)-1)
	for i := 1; i < len(sorted); i++ {
		g := Gap{Start: sorted[i-1], Duration: sorted[i] - sorted[i-1]}
		switch {
		case g.Duration < BackToBackThreshold:
			g.Class = BackToBack
		case anyWindowInside(events, sorted[i-1], sorted[i]):
			g.Class = MissedEvent
		default:
			g.Class = Clean
		}
		gaps = append(gaps, g)
	}
	return gaps
}

func anyWindowInside(events []Window, t0, t1 units.Seconds) bool {
	for _, w := range events {
		if w.Start > t0 && w.End < t1 {
			return true
		}
	}
	return false
}

// GapCounts tallies gaps by class.
func GapCounts(gaps []Gap) map[GapClass]int {
	counts := make(map[GapClass]int, 3)
	for _, g := range gaps {
		counts[g.Class]++
	}
	return counts
}

// Histogram bins values by duration. Edges must be ascending; values
// below the first edge land in bin 0, values at or above the last edge
// in the final bin.
type Histogram struct {
	Edges  []units.Seconds
	Counts []int
}

// NewHistogram builds a histogram with len(edges)+1 bins.
func NewHistogram(edges ...units.Seconds) *Histogram {
	return &Histogram{Edges: edges, Counts: make([]int, len(edges)+1)}
}

// Add bins one value. Counts is grown on demand so a Histogram built
// by hand (or the zero value, a single all-encompassing bin) works the
// same as one from NewHistogram instead of indexing out of range.
func (h *Histogram) Add(v units.Seconds) {
	i := sort.Search(len(h.Edges), func(i int) bool { return v < h.Edges[i] })
	for len(h.Counts) <= len(h.Edges) {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[i]++
}

// BinLabel renders bin i's range for tables.
func (h *Histogram) BinLabel(i int) string {
	switch {
	case len(h.Edges) == 0:
		return "all"
	case i == 0:
		return fmt.Sprintf("< %v", h.Edges[0])
	case i >= len(h.Edges):
		return fmt.Sprintf("≥ %v", h.Edges[len(h.Edges)-1])
	default:
		return fmt.Sprintf("%v – %v", h.Edges[i-1], h.Edges[i])
	}
}
