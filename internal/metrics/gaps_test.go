package metrics

import (
	"testing"

	"capybara/internal/units"
)

// TestHistogramZeroValue pins the lazy-grow fix: a Histogram built by
// hand (Edges set, Counts left nil — or the plain zero value) used to
// panic with an index-out-of-range on the first Add.
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	h.Add(1)
	h.Add(100)
	if got := binned(&h); got != 2 {
		t.Fatalf("zero-value histogram total %d, want 2", got)
	}
	if h.BinLabel(0) != "all" {
		t.Fatalf("zero-value bin label %q", h.BinLabel(0))
	}

	manual := Histogram{Edges: []units.Seconds{1, 10}}
	for _, v := range []units.Seconds{0.5, 5, 50} {
		manual.Add(v)
	}
	if want := []int{1, 1, 1}; len(manual.Counts) != 3 ||
		manual.Counts[0] != want[0] || manual.Counts[1] != want[1] || manual.Counts[2] != want[2] {
		t.Fatalf("hand-built histogram counts %v, want %v", manual.Counts, want)
	}
}

// TestHistogramBinning pins the NewHistogram path against the same
// inputs so the lazy-grow branch cannot drift from it.
func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(1, 10)
	for _, v := range []units.Seconds{0.5, 5, 50, 10} {
		h.Add(v)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 2 {
		t.Fatalf("counts %v, want [1 1 2]", h.Counts)
	}
}

// binned returns the number of values h holds, over all its bins.
func binned(h *Histogram) int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}
