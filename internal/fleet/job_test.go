package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"
)

func mustJob(t *testing.T, cfg Config) *Job {
	t.Helper()
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestJobSpecHash pins the fingerprint contract: stable across
// rebuilds, sensitive to every canonical field, and blind to the
// worker count (which shard workers choose locally).
func TestJobSpecHash(t *testing.T) {
	base := Config{N: 96, Seed: 1, Scale: 0.05, ChunkSize: 8}
	h := mustJob(t, base).SpecHash()
	if h == "" {
		t.Fatal("empty spec hash")
	}
	if got := mustJob(t, base).SpecHash(); got != h {
		t.Fatalf("hash not stable: %s vs %s", h, got)
	}

	canonical := []Config{
		{N: 97, Seed: 1, Scale: 0.05, ChunkSize: 8},
		{N: 96, Seed: 2, Scale: 0.05, ChunkSize: 8},
		{N: 96, Seed: 1, Scale: 0.06, ChunkSize: 8},
		{N: 96, Seed: 1, Scale: 0.05, ChunkSize: 16},
	}
	for _, cfg := range canonical {
		if mustJob(t, cfg).SpecHash() == h {
			t.Fatalf("hash ignored canonical change: %+v", cfg)
		}
	}

	if mustJob(t, Config{N: 96, Seed: 1, Scale: 0.05, ChunkSize: 8, Jobs: 7}).SpecHash() != h {
		t.Fatal("hash depends on the worker count")
	}

	// Spec round trip (what the wire ships) rebuilds the same hash.
	spec := mustJob(t, base).Spec()
	rebuilt := mustJob(t, spec.Exec(3))
	if rebuilt.SpecHash() != h {
		t.Fatal("Spec round trip changed the hash")
	}
}

// TestJobChunks pins the decomposition arithmetic.
func TestJobChunks(t *testing.T) {
	job := mustJob(t, Config{N: 100, Seed: 1, ChunkSize: 8})
	if got := job.NumChunks(); got != 13 {
		t.Fatalf("NumChunks = %d, want 13", got)
	}
	lo, hi := job.ChunkBounds(0)
	if lo != 0 || hi != 8 {
		t.Fatalf("chunk 0 = [%d, %d)", lo, hi)
	}
	lo, hi = job.ChunkBounds(12)
	if lo != 96 || hi != 100 {
		t.Fatalf("last chunk = [%d, %d), want [96, 100)", lo, hi)
	}
	if got := mustJob(t, Config{N: 5, Seed: 1}).NumChunks(); got != 1 {
		t.Fatalf("small fleet has %d chunks, want 1", got)
	}
}

// TestRunChunkFoldMatchesRun: driving the chunk API by hand — with the
// partials gob round-tripped, as the shard protocol does — folds to the
// same report as Run.
func TestRunChunkFoldMatchesRun(t *testing.T) {
	cfg := Config{N: 96, Seed: 1, Jobs: 2, Scale: 0.05, ChunkSize: 16}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	job := mustJob(t, cfg)
	ws := job.NewScratch()
	partials := make([]*ChunkPartial, job.NumChunks())
	for ci := range partials {
		cp, err := job.RunChunk(context.Background(), ci, ws)
		if err != nil {
			t.Fatal(err)
		}
		// Round trip through gob exactly as the wire does.
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
			t.Fatal(err)
		}
		var decoded ChunkPartial
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		partials[ci] = &decoded
	}
	folded, err := job.Fold(partials)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := folded.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("hand-driven chunk fold differs from Run:\n--- Run ---\n%s--- chunks ---\n%s",
			want.String(), got.String())
	}
}

// TestRunChunkValidation covers the chunk API's error paths.
func TestRunChunkValidation(t *testing.T) {
	job := mustJob(t, Config{N: 16, Seed: 1, Scale: 0.05, ChunkSize: 8})
	if _, err := job.RunChunk(context.Background(), -1, nil); err == nil {
		t.Fatal("negative chunk accepted")
	}
	if _, err := job.RunChunk(context.Background(), 2, nil); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
	if _, err := job.Fold(make([]*ChunkPartial, 1)); err == nil {
		t.Fatal("short partial slice accepted")
	}
	cp, err := job.RunChunk(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Fold([]*ChunkPartial{cp, nil}); err == nil {
		t.Fatal("nil partial accepted")
	}
	if _, err := job.Fold([]*ChunkPartial{cp, cp}); err == nil {
		t.Fatal("mislabeled partial accepted")
	}
}
