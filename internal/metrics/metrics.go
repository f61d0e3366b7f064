// Package metrics computes the paper's evaluation measures: event
// detection accuracy (Fig. 8, Fig. 10), report latency (Fig. 9), and
// inter-sample interval distributions (Fig. 11), plus small statistics
// and histogram helpers shared by the benchmarks and CLIs.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"capybara/internal/units"
)

// Outcome labels how an event was handled, matching Fig. 8's legend.
type Outcome string

const (
	// Correct: the event was detected and reported correctly.
	Correct Outcome = "correct"
	// Misclassified: reported, but with the wrong classification
	// (e.g. gesture direction decoded too late in the swing).
	Misclassified Outcome = "misclassified"
	// ProximityOnly: the sensor fired on proximity but produced no
	// gesture (GRC-specific).
	ProximityOnly Outcome = "proximity-only"
	// Missed: the device never observed the event (off or charging).
	Missed Outcome = "missed"
)

// Report is one event's disposition: when the event happened and when
// (if ever) the alert packet was received.
type Report struct {
	EventIndex int
	EventAt    units.Seconds
	ReportedAt units.Seconds
	Outcome    Outcome
}

// Latency returns the event-to-report latency.
func (r Report) Latency() units.Seconds { return r.ReportedAt - r.EventAt }

// Recorder collects an experiment run's observables. The zero value is
// ready to use.
type Recorder struct {
	// DropSamples makes RecordSample a no-op, so Samples stays empty.
	// Only the inter-sample gap analysis (Fig. 11) reads samples, and a
	// gesture lifecycle takes over a million of them; a caller that
	// aggregates reports alone sets this to keep neither the timestamps
	// nor their memory. Reset leaves it unchanged.
	DropSamples bool

	samples []units.Seconds
	reports map[int]Report
}

// RecordSample notes that a sensor observed the world at time t.
func (r *Recorder) RecordSample(t units.Seconds) {
	if r.DropSamples {
		return
	}
	r.samples = append(r.samples, t)
}

// Reset clears the recorder for reuse, keeping the backing storage.
// A long lifecycle retains tens of thousands of sample timestamps, so
// repeated runs recycle recorders instead of allocating per device.
func (r *Recorder) Reset() {
	r.samples = r.samples[:0]
	clear(r.reports)
}

// RecordReport notes an event's disposition. Only the first report per
// event index is kept: BLE retransmissions of the same alert do not
// improve accuracy, and real sniffers deduplicate too. A reported
// outcome upgrades an earlier Missed/ProximityOnly placeholder.
func (r *Recorder) RecordReport(rep Report) {
	if r.reports == nil {
		r.reports = make(map[int]Report)
	}
	if prev, ok := r.reports[rep.EventIndex]; ok {
		if rank(rep.Outcome) <= rank(prev.Outcome) {
			return
		}
	}
	r.reports[rep.EventIndex] = rep
}

// rank orders outcomes from worst to best so upgrades are well-defined.
func rank(o Outcome) int {
	switch o {
	case Correct:
		return 3
	case Misclassified:
		return 2
	case ProximityOnly:
		return 1
	default:
		return 0
	}
}

// Samples returns the recorded sample times in order.
func (r *Recorder) Samples() []units.Seconds {
	out := make([]units.Seconds, len(r.samples))
	copy(out, r.samples)
	return out
}

// Reports returns the recorded per-event dispositions sorted by index.
func (r *Recorder) Reports() []Report {
	out := make([]Report, 0, len(r.reports))
	for _, rep := range r.reports {
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EventIndex < out[j].EventIndex })
	return out
}

// Accuracy is Fig. 8's stacked bar for one system: fractions of events
// by outcome.
type Accuracy struct {
	Total         int
	Correct       int
	Misclassified int
	ProximityOnly int
	Missed        int
}

// ComputeAccuracy tallies outcomes over totalEvents; events without a
// report count as missed.
func (r *Recorder) ComputeAccuracy(totalEvents int) Accuracy {
	a := Accuracy{Total: totalEvents}
	for _, rep := range r.reports {
		switch rep.Outcome {
		case Correct:
			a.Correct++
		case Misclassified:
			a.Misclassified++
		case ProximityOnly:
			a.ProximityOnly++
		}
	}
	a.Missed = totalEvents - a.Correct - a.Misclassified - a.ProximityOnly
	if a.Missed < 0 {
		a.Missed = 0
	}
	return a
}

// FractionCorrect returns the correct share in [0, 1].
func (a Accuracy) FractionCorrect() float64 {
	if a.Total == 0 {
		return 0
	}
	return float64(a.Correct) / float64(a.Total)
}

func (a Accuracy) String() string {
	return fmt.Sprintf("correct %d/%d (%.0f%%), misclassified %d, proximity-only %d, missed %d",
		a.Correct, a.Total, 100*a.FractionCorrect(), a.Misclassified, a.ProximityOnly, a.Missed)
}

// Latencies returns the event-to-report latency of every correctly or
// misclassified-reported event (events that produced a packet).
func (r *Recorder) Latencies() []units.Seconds {
	return r.AppendLatencies(nil)
}

// AppendLatencies appends the latencies Latencies would return to dst
// and returns the extended slice, in event-index order. Passing a
// recycled dst lets per-device aggregation loops avoid two allocations
// per device (the sorted report copy and the latency slice).
func (r *Recorder) AppendLatencies(dst []units.Seconds) []units.Seconds {
	idx := make([]int, 0, len(r.reports))
	for i, rep := range r.reports {
		if rep.Outcome == Correct || rep.Outcome == Misclassified {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		dst = append(dst, r.reports[i].Latency())
	}
	return dst
}

// DelayedFraction returns the share of values exceeding threshold —
// the paper's "increased latency is incurred for 7 % of reported events
// in GRC-Fast and 54 % in GRC-Compact" measure (§6.3).
func DelayedFraction(xs []units.Seconds, threshold units.Seconds) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Summary is a five-number statistic over a series of durations.
type Summary struct {
	Count                  int
	Mean, Median, Min, Max units.Seconds
	P95                    units.Seconds
}

// Summarize computes a Summary; an empty input yields the zero value.
// NaN values are dropped before sorting — a single undefined latency
// (e.g. a report that never happened subtracted from one that did)
// would otherwise poison the sort order and every derived statistic.
func Summarize(xs []units.Seconds) Summary {
	sorted := make([]units.Seconds, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(float64(x)) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return Summary{}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum units.Seconds
	for _, x := range sorted {
		sum += x
	}
	return Summary{
		Count:  len(sorted),
		Mean:   sum / units.Seconds(len(sorted)),
		Median: sorted[len(sorted)/2],
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P95:    sorted[(len(sorted)*95)/100],
	}
}

func (s Summary) String() string {
	if s.Count == 0 {
		return "no data"
	}
	return fmt.Sprintf("n=%d mean=%v median=%v min=%v max=%v p95=%v",
		s.Count, s.Mean, s.Median, s.Min, s.Max, s.P95)
}
