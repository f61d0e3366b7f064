package fleetsvc

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"capybara/internal/fleet"
)

// legacyEntry is chunk 2 of legacySpec as daemons wrote it before
// ChunkPartial dropped its per-cohort Ops and Fuse stat sidecars and,
// later, its Cache and Memo ones: the gob payload still carries all
// four (Cache records 61 misses, Memo 48 cohorts). Existing stores are
// full of such entries, and they must keep loading.
const legacyEntry = "testdata/spec-n64-seed3-chunk2.cp"

var legacySpec = fleet.Spec{N: 64, Seed: 3, Scale: 0.05, ChunkSize: 16}

// TestDecodeLegacyEntry: an entry with the dropped sidecars decodes
// (gob skips fields the type no longer has), its spec hash is still the
// one this binary derives, and its accumulators equal a fresh
// computation of the same chunk.
func TestDecodeLegacyEntry(t *testing.T) {
	data, err := os.ReadFile(legacyEntry)
	if err != nil {
		t.Fatal(err)
	}
	job, err := fleet.NewJob(legacySpec.Exec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data[8 : 8+hashLen]); got != job.SpecHash() {
		t.Fatalf("spec hash moved: entry has %s, this binary derives %s", got, job.SpecHash())
	}
	cp, err := DecodeEntry(data, job.SpecHash(), 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh := runChunk(t, job, 2)
	if !reflect.DeepEqual(cp.Cohorts, fresh.Cohorts) {
		t.Fatal("legacy entry's cohort accumulators differ from a fresh RunChunk")
	}
}

// TestWarmRunLoadsLegacyEntry: a run over a store holding a legacy
// entry folds it instead of recomputing that chunk, quarantines
// nothing, and reports the bytes of an uncheckpointed run.
func TestWarmRunLoadsLegacyEntry(t *testing.T) {
	data, err := os.ReadFile(legacyEntry)
	if err != nil {
		t.Fatal(err)
	}
	cfg := legacySpec.Exec(1)
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t)
	path := entryPath(s, job.SpecHash(), 2)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	res, stats, err := RunWithStore(context.Background(), s, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Loaded != 1 || stats.Computed != job.NumChunks()-1 {
		t.Fatalf("run stats %+v: want the legacy chunk loaded and the rest computed", stats)
	}
	if q := s.Stats().Quarantined; q != 0 {
		t.Fatalf("%d entries quarantined", q)
	}
	direct, err := fleet.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := res.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("report differs:\n--- store ---\n%s--- direct ---\n%s", got.String(), want.String())
	}
}
