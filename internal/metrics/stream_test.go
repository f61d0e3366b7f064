package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"capybara/internal/units"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.String() != "no data" || r.Variance() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Fatal("empty accumulator not inert")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N != 8 || r.Mean != 5 {
		t.Fatalf("mean: %+v", r)
	}
	if v := r.Variance(); math.Abs(v-4) > 1e-12 {
		t.Fatalf("variance %v, want 4", v)
	}
	if r.StdDev() != math.Sqrt(r.Variance()) {
		t.Fatal("StdDev != sqrt(Variance)")
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("extremes: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty render")
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	b.Add(3)
	a.Merge(b) // empty ← nonempty adopts
	if a.N != 1 || a.Mean != 3 || a.Min() != 3 {
		t.Fatalf("adopt: %+v", a)
	}
	a.Merge(Running{}) // nonempty ← empty is a no-op
	if a.N != 1 || a.Mean != 3 {
		t.Fatalf("no-op: %+v", a)
	}
}

// TestRunningMergeEquivalence is the shard-fold property: splitting a
// stream at any point and merging the two accumulators matches the
// single-pass result to float tolerance.
func TestRunningMergeEquivalence(t *testing.T) {
	f := func(seed int64, rawSplit uint16, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n)%200 + 2
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = rng.NormFloat64()*1e3 + 50
		}
		split := int(rawSplit) % m

		var single Running
		for _, x := range xs {
			single.Add(x)
		}
		var left, right Running
		for _, x := range xs[:split] {
			left.Add(x)
		}
		for _, x := range xs[split:] {
			right.Add(x)
		}
		left.Merge(right)

		if left.N != single.N || left.Min() != single.Min() || left.Max() != single.Max() {
			t.Logf("count/extremes: merged %+v single %+v", left, single)
			return false
		}
		scale := math.Abs(single.Mean) + 1
		if math.Abs(left.Mean-single.Mean) > 1e-9*scale {
			t.Logf("mean: merged %v single %v", left.Mean, single.Mean)
			return false
		}
		vScale := single.Variance() + 1
		if math.Abs(left.Variance()-single.Variance()) > 1e-9*vScale {
			t.Logf("variance: merged %v single %v", left.Variance(), single.Variance())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(1, 10, 60)
	b := NewHistogram(1, 10, 60)
	for _, v := range []units.Seconds{0.5, 3, 3, 70} {
		a.Add(v)
	}
	for _, v := range []units.Seconds{12, 0.1, 100} {
		b.Add(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 2, 1, 2}
	for i, c := range a.Counts {
		if c != want[i] {
			t.Fatalf("counts %v, want %v", a.Counts, want)
		}
	}
	if binned(a) != 7 {
		t.Fatalf("total %d", binned(a))
	}
}

func TestHistogramMergeShapes(t *testing.T) {
	// Zero-value histogram adopts the other's shape.
	var z Histogram
	o := NewHistogram(1, 2)
	o.Add(1.5)
	if err := z.Merge(o); err != nil {
		t.Fatal(err)
	}
	if binned(&z) != 1 || len(z.Edges) != 2 {
		t.Fatalf("adopt: %+v", z)
	}
	// Adopted state is a copy, not an alias.
	z.Add(1.5)
	if o.Counts[1] != 1 {
		t.Fatalf("merge aliased counts: %+v", o)
	}
	// Nil merge is a no-op.
	if err := z.Merge(nil); err != nil {
		t.Fatal(err)
	}
	// Mismatched edges are an error, not silent nonsense.
	if err := z.Merge(NewHistogram(1, 3)); err == nil {
		t.Fatal("mismatched edge values accepted")
	}
	if err := z.Merge(NewHistogram(1)); err == nil {
		t.Fatal("mismatched edge count accepted")
	}
	// A hand-built histogram with short Counts lazy-grows on merge.
	short := &Histogram{Edges: []units.Seconds{1, 2}}
	if err := short.Merge(o); err != nil {
		t.Fatal(err)
	}
	if binned(short) != 1 {
		t.Fatalf("short merge: %+v", short)
	}
}

// TestHistogramMergeEquivalence: merging per-shard histograms is
// integer-exact against a single-pass fill, for any split.
func TestHistogramMergeEquivalence(t *testing.T) {
	f := func(seed int64, rawSplit uint16, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(n)%300 + 1
		xs := make([]units.Seconds, m)
		for i := range xs {
			xs[i] = units.Seconds(rng.Float64() * 120)
		}
		split := int(rawSplit) % m

		single := NewHistogram(1, 5, 10, 30, 60)
		for _, x := range xs {
			single.Add(x)
		}
		left, right := NewHistogram(1, 5, 10, 30, 60), NewHistogram(1, 5, 10, 30, 60)
		for _, x := range xs[:split] {
			left.Add(x)
		}
		for _, x := range xs[split:] {
			right.Add(x)
		}
		if err := left.Merge(right); err != nil {
			t.Log(err)
			return false
		}
		for i, c := range single.Counts {
			if left.Counts[i] != c {
				t.Logf("bin %d: merged %d single %d", i, left.Counts[i], c)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
