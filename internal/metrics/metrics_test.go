package metrics

import (
	"math"
	"reflect"
	"testing"

	"capybara/internal/units"
)

func TestRecorderDeduplicatesReports(t *testing.T) {
	var r Recorder
	r.RecordReport(Report{EventIndex: 1, EventAt: 10, ReportedAt: 12, Outcome: Correct})
	// A retransmission of the same event must not create a second row.
	r.RecordReport(Report{EventIndex: 1, EventAt: 10, ReportedAt: 30, Outcome: Correct})
	if got := r.ComputeAccuracy(1); got.Correct != 1 {
		t.Fatalf("accuracy %+v, want one correct report", got)
	}
	if lat := r.Latencies(); len(lat) != 1 || lat[0] != 2 {
		t.Fatalf("latencies %v: the first report must win, with latency 2", lat)
	}
}

func TestRecorderUpgradesOutcome(t *testing.T) {
	var r Recorder
	r.RecordReport(Report{EventIndex: 2, Outcome: ProximityOnly})
	r.RecordReport(Report{EventIndex: 2, Outcome: Correct, ReportedAt: 5})
	if got := r.ComputeAccuracy(1); got.Correct != 1 || got.ProximityOnly != 0 {
		t.Fatalf("outcome not upgraded: %+v", got)
	}
	// A downgrade must be ignored.
	r.RecordReport(Report{EventIndex: 2, Outcome: Misclassified})
	if got := r.ComputeAccuracy(1); got.Correct != 1 || got.Misclassified != 0 {
		t.Fatalf("outcome downgraded: %+v", got)
	}
}

func TestComputeAccuracy(t *testing.T) {
	var r Recorder
	r.RecordReport(Report{EventIndex: 0, Outcome: Correct})
	r.RecordReport(Report{EventIndex: 1, Outcome: Correct})
	r.RecordReport(Report{EventIndex: 2, Outcome: Misclassified})
	r.RecordReport(Report{EventIndex: 3, Outcome: ProximityOnly})
	a := r.ComputeAccuracy(10)
	want := Accuracy{Total: 10, Correct: 2, Misclassified: 1, ProximityOnly: 1, Missed: 6}
	if a != want {
		t.Fatalf("accuracy = %+v, want %+v", a, want)
	}
	if a.FractionCorrect() != 0.2 {
		t.Fatalf("fraction = %g", a.FractionCorrect())
	}
	if a.String() == "" {
		t.Error("empty stringer")
	}
	if (Accuracy{}).FractionCorrect() != 0 {
		t.Error("zero-total fraction should be 0")
	}
}

func TestLatencies(t *testing.T) {
	var r Recorder
	r.RecordReport(Report{EventIndex: 0, EventAt: 10, ReportedAt: 12.5, Outcome: Correct})
	r.RecordReport(Report{EventIndex: 1, EventAt: 20, ReportedAt: 21, Outcome: Misclassified})
	r.RecordReport(Report{EventIndex: 2, EventAt: 30, Outcome: Missed})
	got := r.Latencies()
	if !reflect.DeepEqual(got, []units.Seconds{2.5, 1}) {
		t.Fatalf("latencies = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]units.Seconds{5, 1, 3, 2, 4})
	if s.Count != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty stringer")
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.String() != "no data" {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestSummarizeP95(t *testing.T) {
	xs := make([]units.Seconds, 100)
	for i := range xs {
		xs[i] = units.Seconds(i + 1)
	}
	s := Summarize(xs)
	if s.P95 != 96 {
		t.Fatalf("p95 = %v, want 96", s.P95)
	}
}

func TestAnalyzeGaps(t *testing.T) {
	samples := []units.Seconds{0, 0.5, 0.9, 10, 120}
	events := []Window{
		{Start: 50, End: 51},   // entirely inside the 10→120 gap: missed
		{Start: 9.5, End: 9.9}, // inside 0.9→10: missed
	}
	gaps := AnalyzeGaps(samples, events)
	if len(gaps) != 4 {
		t.Fatalf("gaps = %d, want 4", len(gaps))
	}
	wantClasses := []GapClass{BackToBack, BackToBack, MissedEvent, MissedEvent}
	for i, g := range gaps {
		if g.Class != wantClasses[i] {
			t.Errorf("gap %d class = %v, want %v", i, g.Class, wantClasses[i])
		}
	}
	counts := GapCounts(gaps)
	if counts[BackToBack] != 2 || counts[MissedEvent] != 2 || counts[Clean] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestAnalyzeGapsCleanAndEdge(t *testing.T) {
	// An event overlapping a sample time is NOT missed: the window is
	// only missed when it sits strictly inside the gap.
	samples := []units.Seconds{0, 10}
	events := []Window{{Start: 9, End: 11}}
	gaps := AnalyzeGaps(samples, events)
	if gaps[0].Class != Clean {
		t.Fatalf("overlapping window misclassified: %v", gaps[0].Class)
	}
	if AnalyzeGaps([]units.Seconds{5}, nil) != nil {
		t.Error("single sample should yield no gaps")
	}
	// Unsorted input is sorted internally.
	g := AnalyzeGaps([]units.Seconds{10, 0}, nil)
	if len(g) != 1 || g[0].Duration != 10 {
		t.Fatalf("unsorted input mishandled: %+v", g)
	}
}

func TestGapClassStrings(t *testing.T) {
	for _, c := range []GapClass{BackToBack, Clean, MissedEvent} {
		if c.String() == "" {
			t.Errorf("class %d empty", c)
		}
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 10, 60)
	for _, v := range []units.Seconds{0.5, 0.9, 5, 30, 120, 60} {
		h.Add(v)
	}
	want := []int{2, 1, 1, 2}
	if !reflect.DeepEqual(h.Counts, want) {
		t.Fatalf("counts = %v, want %v", h.Counts, want)
	}
	labels := []string{h.BinLabel(0), h.BinLabel(1), h.BinLabel(3)}
	for _, l := range labels {
		if l == "" {
			t.Error("empty bin label")
		}
	}
	if NewHistogram().BinLabel(0) != "all" {
		t.Error("edgeless histogram label")
	}
}

func TestRecorderSamples(t *testing.T) {
	var r Recorder
	r.RecordSample(1)
	r.RecordSample(2)
	got := r.Samples()
	if !reflect.DeepEqual(got, []units.Seconds{1, 2}) {
		t.Fatalf("samples = %v", got)
	}
	got[0] = 99
	if r.Samples()[0] != 1 {
		t.Fatal("Samples() must return a copy")
	}
}

func TestDelayedFraction(t *testing.T) {
	xs := []units.Seconds{0.1, 0.2, 5, 60}
	if got := DelayedFraction(xs, 1); got != 0.5 {
		t.Fatalf("DelayedFraction = %g, want 0.5", got)
	}
	if got := DelayedFraction(nil, 1); got != 0 {
		t.Fatalf("empty DelayedFraction = %g", got)
	}
	if got := DelayedFraction(xs, 0.05); got != 1 {
		t.Fatalf("all-delayed = %g", got)
	}
}

// TestSummarizeDropsNaN pins the NaN guard: a single undefined latency
// used to poison the sort order, so every derived statistic (including
// the mean) came out NaN.
func TestSummarizeDropsNaN(t *testing.T) {
	nan := units.Seconds(math.NaN())
	s := Summarize([]units.Seconds{3, nan, 1, 2, nan})
	if s.Count != 3 {
		t.Fatalf("count %d, want 3 (NaNs dropped)", s.Count)
	}
	if math.IsNaN(float64(s.Mean)) || math.IsNaN(float64(s.Median)) ||
		math.IsNaN(float64(s.Min)) || math.IsNaN(float64(s.Max)) || math.IsNaN(float64(s.P95)) {
		t.Fatalf("NaN leaked into summary: %+v", s)
	}
	if s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("wrong order statistics after NaN filter: %+v", s)
	}
	if all := Summarize([]units.Seconds{nan, nan}); all.Count != 0 {
		t.Fatalf("all-NaN input should summarize to the zero value, got %+v", all)
	}
}

// TestEmptySampleGuards pins the division-by-zero guards on the
// fraction helpers and the empty-input summary.
func TestEmptySampleGuards(t *testing.T) {
	if f := (Accuracy{}).FractionCorrect(); f != 0 {
		t.Fatalf("FractionCorrect on zero events = %v, want 0", f)
	}
	if f := DelayedFraction(nil, 1); f != 0 {
		t.Fatalf("DelayedFraction on no samples = %v, want 0", f)
	}
	if s := Summarize(nil); s.Count != 0 || s.Mean != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zero value", s)
	}
}
