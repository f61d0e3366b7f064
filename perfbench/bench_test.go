package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"capybara/internal/fleet"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // exactly ten samples beyond
		{99, 0.90, 90, false},   // nine beyond
		{1000, 0.99, 990, true}, // ten beyond
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{5, 0.50, 3, false},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, v, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "job", Start: ms(0), End: ms(100)},
		// Two overlapping children (two workers) and one running past the
		// parent's end: together they cover [10,50] and [90,100].
		{ID: 2, Parent: 1, Name: "chunk", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "chunk", Start: ms(20), End: ms(50)},
		{ID: 4, Parent: 1, Name: "fold", Start: ms(90), End: ms(120)},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 3, Name: "put", Start: ms(40), End: ms(45)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":   ms(100 - 50),
		"chunk": ms(20) + ms(30-5),
		"fold":  ms(30),
		"put":   ms(5),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerRecordsParentsAndNilIsInert(t *testing.T) {
	var off *tracer
	off.begin("x", 0, 1).end()
	if off.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
	tr := newTracer()
	root := tr.begin("job", 0, 7)
	tr.begin("chunk", root.id, 7).end()
	tr.begin("never-closed", root.id, 7) // still open: left out of the snapshot
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Op != 7 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestDigestRejectsFlippedByte(t *testing.T) {
	res, err := fleet.Run(context.Background(), fleet.Config{N: 48, Seed: 3, Scale: 0.01, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	report, err := csvReport(res)
	if err != nil {
		t.Fatal(err)
	}
	want := digest(report)
	if err := checkDigest(report, want); err != nil {
		t.Fatalf("intact report rejected: %v", err)
	}
	for _, i := range []int{0, len(report) / 2, len(report) - 1} {
		flipped := append([]byte(nil), report...)
		flipped[i] ^= 0x01
		if checkDigest(flipped, want) == nil {
			t.Errorf("report with byte %d flipped accepted", i)
		}
	}
	// The reference path (fresh scratch per chunk, reverse order, one
	// goroutine) must render the same bytes as fleet.Run.
	ref, err := reference(context.Background(), fleet.Spec{N: 48, Seed: 3, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(ref, want); err != nil {
		t.Errorf("reference report differs from fleet.Run's: %v", err)
	}
	if err := checkCohorts(res, 48); err != nil {
		t.Errorf("checkCohorts on a real result: %v", err)
	}
	if checkCohorts(res, 47) == nil {
		t.Error("checkCohorts accepted a wrong device total")
	}
}

func TestServiceLoopStops(t *testing.T) {
	const budget = 30 * time.Second
	for _, c := range []struct {
		elapsed            time.Duration
		cold, warm, failed int
		want               bool
	}{
		{budget / 2, minCold, minWarm, 0, false}, // the budget runs out first
		{budget / 2, 0, 0, 5, false},
		{budget, minCold, minWarm, 0, true},
		{budget, minCold - 1, minWarm, 0, false}, // too few for the cold tail
		{budget, minCold, minWarm - 1, 0, false},
		{budget, 0, 0, 1, true}, // a failure ends it: the result line reports it
		{budget + time.Second, 48, 384, 1, true},
		{2*budget - time.Second, 48, 384, 0, false},
		{2 * budget, 48, 384, 0, true}, // a slow commit cannot keep it going
	} {
		if got := serviceDone(c.elapsed, budget, c.cold, c.warm, c.failed); got != c.want {
			t.Errorf("serviceDone(%v, %v, cold %d, warm %d, failed %d) = %v, want %v",
				c.elapsed, budget, c.cold, c.warm, c.failed, got, c.want)
		}
	}
}

func TestGeneratorStable(t *testing.T) {
	a, err := generate(fleetShort, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(fleetShort, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different inputs")
	}
	// Pinned: a change here silently changes every workload's inputs.
	if got := derive(7, fleetShort, 0); got != pinnedDerive {
		t.Errorf("derive(7, fleet-short, 0) = %d, want %d", got, pinnedDerive)
	}
	if a.Fleet[0].Seed != pinnedDerive {
		t.Errorf("fleet-short seed 7 fleet seed = %d, want %d", a.Fleet[0].Seed, pinnedDerive)
	}
	if c, _ := generate(fleetShort, 8); c.Fleet[0].Seed == a.Fleet[0].Seed {
		t.Error("seeds 7 and 8 gave the same fleet seed")
	}
	svc, _ := generate(service, 7)
	if again, _ := generate(service, 7); !reflect.DeepEqual(svc, again) {
		t.Error("same seed gave different service specs")
	}
	seen := map[int64]bool{}
	for _, s := range svc.Service {
		if seen[s.Seed] {
			t.Errorf("service spec seed %d repeats: a cold job would find its chunks stored", s.Seed)
		}
		seen[s.Seed] = true
	}
	if _, err := generate("nope", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

const pinnedDerive = 543321131697868494

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, program has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
