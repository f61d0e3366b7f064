package fleetsvc

import (
	"bytes"
	"encoding/json"
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

	res, loaded, computed := runWithStore(t, s, cfg)
	if loaded != 1 || computed != job.NumChunks()-1 {
		t.Fatalf("loaded %d, computed %d: want the legacy chunk loaded and the rest computed", loaded, computed)
	}
	if q := quarantined(t, s); q != 0 {
		t.Fatalf("%d entries quarantined", q)
	}
	var got bytes.Buffer
	if err := res.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if want := baseline(t, cfg); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report differs:\n--- store ---\n%s--- direct ---\n%s", got.Bytes(), want)
	}
}

// TestServiceLegacyReportLayout: daemons used to keep each done job's
// reports at jobs/<id>.report.{csv,json}, with no reports/ directory.
// Restarted on such a store, the done job finds no report for its spec
// hash, is re-run from its checkpoints without computing a chunk, and
// serves the reports fleet.Run renders. The legacy files are not read
// as journals.
func TestServiceLegacyReportLayout(t *testing.T) {
	cfg := fleet.Config{N: 48, Seed: 3, Scale: 0.05, ChunkSize: 8}
	job, err := fleet.NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	csv, js := reports(t, cfg)

	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for ci, entry := range entries(t, cfg) {
		if err := store.put(job.SpecHash(), ci, entry); err != nil {
			t.Fatal(err)
		}
	}
	const id = "j000001"
	rec, err := json.MarshalIndent(jobRecord{
		ID:       id,
		Spec:     specOf(cfg),
		SpecHash: job.SpecHash(),
		State:    StateDone,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		id + ".json":        append(rec, '\n'),
		id + ".report.csv":  csv,
		id + ".report.json": js,
	} {
		if err := os.WriteFile(filepath.Join(dir, "jobs", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.RemoveAll(filepath.Join(dir, "reports")); err != nil {
		t.Fatal(err)
	}

	svc := openService(t, dir, ServiceConfig{})
	defer svc.Close()
	st := waitDone(t, svc, id)
	if st.State != StateDone || st.Computed != 0 || st.Loaded != st.Chunks {
		t.Fatalf("legacy done job came back %s (%s), computed %d loaded %d of %d chunks",
			st.State, st.Error, st.Computed, st.Loaded, st.Chunks)
	}
	if n := len(svc.List()); n != 1 {
		t.Fatalf("daemon lists %d jobs, want 1", n)
	}
	for _, want := range []struct {
		asJSON bool
		data   []byte
	}{{false, csv}, {true, js}} {
		got, err := svc.Report(id, want.asJSON)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.data) {
			t.Fatalf("json=%v: served report differs from fleet.Run's", want.asJSON)
		}
	}
}
