package metrics

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"capybara/internal/units"
)

// The fleet daemon's store entries carry Running and Histogram
// accumulators between processes (gob today; JSON is the documented
// alternative encoding). These property tests pin the contract the distributed fold
// depends on: encode → decode → Merge is bit-identical to merging the
// original value directly. Running holds float64 state, so "equal"
// means math.Float64bits equality, not tolerance.

func gobRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

func jsonRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	b, err := json.Marshal(&v)
	if err != nil {
		t.Fatalf("json marshal: %v", err)
	}
	var out T
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatalf("json unmarshal: %v", err)
	}
	return out
}

// sameBits compares two floats exactly (NaN-safe, -0 vs +0 sensitive —
// the decoded accumulator must replay the identical operations).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func runningEqual(a, b Running) bool {
	return a.N == b.N && sameBits(a.Mean, b.Mean) && sameBits(a.M2, b.M2) &&
		sameBits(a.MinV, b.MinV) && sameBits(a.MaxV, b.MaxV)
}

// randomRunning folds n draws spanning many magnitudes (including
// negatives and subnormal-ish values) into an accumulator.
func randomRunning(rng *rand.Rand, n int) Running {
	var r Running
	for i := 0; i < n; i++ {
		x := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
		r.Add(x)
	}
	return r
}

// TestRunningRoundTripMerge: for random split streams, decode(encode(b))
// merged into a equals b merged into a, bit for bit, under both codecs.
func TestRunningRoundTripMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	codecs := []struct {
		name string
		rt   func(*testing.T, Running) Running
	}{
		{"gob", gobRoundTrip[Running]},
		{"json", jsonRoundTrip[Running]},
	}
	for _, codec := range codecs {
		for trial := 0; trial < 200; trial++ {
			a := randomRunning(rng, rng.Intn(50))
			b := randomRunning(rng, rng.Intn(50))

			// Round trip alone must be lossless.
			decoded := codec.rt(t, b)
			if !runningEqual(b, decoded) {
				t.Fatalf("%s trial %d: round trip changed the accumulator: %+v vs %+v",
					codec.name, trial, b, decoded)
			}

			direct := a
			direct.Merge(b)
			viaWire := a
			viaWire.Merge(decoded)
			if !runningEqual(direct, viaWire) {
				t.Fatalf("%s trial %d: merge-after-decode diverged: %+v vs %+v",
					codec.name, trial, direct, viaWire)
			}
		}

		// The zero value (an empty accumulator) must survive the wire:
		// gob omits zero fields, JSON writes them — either way the
		// decoded value must still merge as a no-op.
		var empty Running
		decoded := codec.rt(t, empty)
		if !runningEqual(empty, decoded) {
			t.Fatalf("%s: empty accumulator changed: %+v", codec.name, decoded)
		}
		target := randomRunning(rng, 17)
		want := target
		target.Merge(decoded)
		if !runningEqual(target, want) {
			t.Fatalf("%s: merging a decoded empty accumulator changed state", codec.name)
		}
	}
}

func histogramsEqual(a, b *Histogram) bool {
	if len(a.Edges) != len(b.Edges) || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Edges {
		if !sameBits(float64(a.Edges[i]), float64(b.Edges[i])) {
			return false
		}
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

func randomHistogram(rng *rand.Rand, edges []units.Seconds, fills int) *Histogram {
	h := NewHistogram(edges...)
	for i := 0; i < fills; i++ {
		h.Add(units.Seconds(rng.Float64() * 200))
	}
	return h
}

// TestHistogramRoundTripMerge: decode(encode(b)) merged into a equals b
// merged into a — counts are integers, so equality is exact, and the
// edge floats must survive bit-identically or Merge would reject them.
func TestHistogramRoundTripMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	codecs := []struct {
		name string
		rt   func(*testing.T, Histogram) Histogram
	}{
		{"gob", gobRoundTrip[Histogram]},
		{"json", jsonRoundTrip[Histogram]},
	}
	for _, codec := range codecs {
		for trial := 0; trial < 200; trial++ {
			nEdges := 1 + rng.Intn(8)
			edges := make([]units.Seconds, 0, nEdges)
			e := rng.Float64() * 10
			for i := 0; i < nEdges; i++ {
				e += rng.Float64() * 30
				edges = append(edges, units.Seconds(e))
			}
			a := randomHistogram(rng, edges, rng.Intn(100))
			b := randomHistogram(rng, edges, rng.Intn(100))

			decoded := codec.rt(t, *b)
			if !histogramsEqual(b, &decoded) {
				t.Fatalf("%s trial %d: round trip changed the histogram: %+v vs %+v",
					codec.name, trial, b, decoded)
			}

			direct := *a
			direct.Counts = append([]int(nil), a.Counts...)
			if err := direct.Merge(b); err != nil {
				t.Fatalf("%s trial %d: direct merge: %v", codec.name, trial, err)
			}
			viaWire := *a
			viaWire.Counts = append([]int(nil), a.Counts...)
			if err := viaWire.Merge(&decoded); err != nil {
				t.Fatalf("%s trial %d: merge after decode rejected the edges: %v",
					codec.name, trial, err)
			}
			if !histogramsEqual(&direct, &viaWire) {
				t.Fatalf("%s trial %d: merge-after-decode diverged: %+v vs %+v",
					codec.name, trial, direct, viaWire)
			}
		}

		// Zero-value histogram: decodes empty and adopts the other
		// side's shape on merge, same as a never-encoded zero value.
		var empty Histogram
		decoded := codec.rt(t, empty)
		if len(decoded.Edges) != 0 || len(decoded.Counts) != 0 {
			t.Fatalf("%s: empty histogram grew on the wire: %+v", codec.name, decoded)
		}
		src := randomHistogram(rng, []units.Seconds{1, 5}, 9)
		if err := decoded.Merge(src); err != nil {
			t.Fatalf("%s: decoded empty histogram rejected adoption: %v", codec.name, err)
		}
		if !histogramsEqual(&decoded, src) {
			t.Fatalf("%s: adoption after decode differs: %+v vs %+v", codec.name, decoded, src)
		}
	}
}
