package fleetsvc

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"capybara/internal/fleet"
)

// testJob is small (N=48 covers each of the 48 cohorts once) but
// decomposes into 6 chunks, enough for prefix/corruption schedules.
func testJob(t *testing.T) *fleet.Job {
	t.Helper()
	job, err := fleet.NewJob(testFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func testFleetConfig() fleet.Config {
	return fleet.Config{N: 48, Seed: 3, Scale: 0.05, ChunkSize: 8}
}

func runChunk(t *testing.T, job *fleet.Job, ci int) *fleet.ChunkPartial {
	t.Helper()
	cp, err := job.RunChunk(context.Background(), ci, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// entryPath locates the on-disk file backing (hash, ci).
func entryPath(s *Store, hash string, ci int) string {
	return filepath.Join(s.Dir(), "partials", hash, chunkFile(ci))
}

// TestStoreRoundTrip: Put then Get returns a partial that folds to the
// exact bytes of the original.
func TestStoreRoundTrip(t *testing.T) {
	job := testJob(t)
	s := openStore(t)
	hash := job.SpecHash()

	direct := make([]*fleet.ChunkPartial, job.NumChunks())
	loaded := make([]*fleet.ChunkPartial, job.NumChunks())
	for ci := 0; ci < job.NumChunks(); ci++ {
		direct[ci] = runChunk(t, job, ci)
		if err := s.Put(hash, ci, direct[ci]); err != nil {
			t.Fatal(err)
		}
		cp, err := s.Get(hash, ci)
		if err != nil {
			t.Fatal(err)
		}
		loaded[ci] = cp
	}

	want := renderFold(t, job, direct)
	got := renderFold(t, job, loaded)
	if want != got {
		t.Fatalf("report from stored partials differs:\n--- direct ---\n%s--- stored ---\n%s", want, got)
	}

	if stored, err := filepath.Glob(filepath.Join(s.Dir(), "partials", hash, "*.cp")); err != nil || len(stored) != job.NumChunks() {
		t.Fatalf("partials/ holds %d entries (%v) after a clean round trip, want %d", len(stored), err, job.NumChunks())
	}
	if n := quarantined(t, s); n != 0 {
		t.Fatalf("%d entries quarantined after a clean round trip", n)
	}

	all, err := s.Load(context.Background(), hash, job.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != job.NumChunks() {
		t.Fatalf("Load returned %d entries, want %d", len(all), job.NumChunks())
	}
	for ci, cp := range all {
		if cp == nil {
			t.Fatalf("Load: chunk %d missing", ci)
		}
	}
	if got := renderFold(t, job, all); got != want {
		t.Fatalf("report from Load differs:\n--- direct ---\n%s--- loaded ---\n%s", want, got)
	}
}

func renderFold(t *testing.T, job *fleet.Job, partials []*fleet.ChunkPartial) string {
	t.Helper()
	res, err := job.Fold(partials)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStoreMiss: an absent entry is ErrNotFound, and nothing is
// quarantined for it.
func TestStoreMiss(t *testing.T) {
	job := testJob(t)
	s := openStore(t)
	if _, err := s.Get(job.SpecHash(), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing entry: %v", err)
	}
	if n := quarantined(t, s); n != 0 {
		t.Fatalf("%d entries quarantined after a miss", n)
	}
}

// quarantined counts the corrupt entries moved into s's quarantine/.
func quarantined(t *testing.T, s *Store) int {
	t.Helper()
	bad, err := filepath.Glob(filepath.Join(s.Dir(), "quarantine", "*.bad"))
	if err != nil {
		t.Fatal(err)
	}
	return len(bad)
}

// corruptions is the table of byte-level faults a store entry must
// survive (by detection, not by tolerance).
var corruptions = []struct {
	name   string
	mangle func(data []byte) []byte
}{
	{"truncated header", func(d []byte) []byte { return d[:entryHeaderLen/2] }},
	{"truncated payload", func(d []byte) []byte { return d[:len(d)-3] }},
	{"empty", func(d []byte) []byte { return nil }},
	{"magic flipped", func(d []byte) []byte { d[0] ^= 0xff; return d }},
	{"header hash flipped", func(d []byte) []byte { d[8] ^= 0x01; return d }},
	{"chunk index flipped", func(d []byte) []byte { d[79] ^= 0x01; return d }},
	{"length flipped", func(d []byte) []byte { d[87] ^= 0x01; return d }},
	{"checksum flipped", func(d []byte) []byte { d[100] ^= 0x01; return d }},
	{"payload bit flip", func(d []byte) []byte { d[entryHeaderLen+1] ^= 0x40; return d }},
	{"payload appended", func(d []byte) []byte { return append(d, 0xaa) }},
}

// TestStoreCorruptionQuarantined: every corruption in the table is
// detected on Get, the entry moves to quarantine/, and the slot reads
// as ErrNotFound afterwards — the recompute path. Load treats the same
// corruption as a miss.
func TestStoreCorruptionQuarantined(t *testing.T) {
	job := testJob(t)
	hash := job.SpecHash()
	cp := runChunk(t, job, 2)

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			if err := s.Put(hash, 2, cp); err != nil {
				t.Fatal(err)
			}
			path := entryPath(s, hash, 2)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := s.Get(hash, 2); !errors.Is(err, ErrNotFound) {
				t.Fatalf("corrupt entry returned %v, want ErrNotFound", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still present: %v", err)
			}
			if n := quarantined(t, s); n != 1 {
				t.Fatalf("quarantine dir holds %d entries, want 1", n)
			}
			// The slot is free to recompute and refill.
			if _, err := s.Get(hash, 2); !errors.Is(err, ErrNotFound) {
				t.Fatalf("quarantined slot returned %v, want ErrNotFound", err)
			}
			if err := s.Put(hash, 2, cp); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(hash, 2); err != nil {
				t.Fatalf("refilled slot: %v", err)
			}

			// Load meets the same corruption as a miss: nil, quarantined.
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := s.Load(context.Background(), hash, job.NumChunks())
			if err != nil {
				t.Fatal(err)
			}
			if loaded[2] != nil {
				t.Fatal("Load returned the corrupt chunk")
			}
			if n := quarantined(t, s); n != 2 {
				t.Fatalf("quarantine dir holds %d entries: Load did not quarantine the corrupt entry", n)
			}
		})
	}
}

// TestStoreWrongHashEntry: an entry copied under a different spec's
// directory (a misfiled checkpoint) is rejected by its header hash even
// though the file itself is internally consistent.
func TestStoreWrongHashEntry(t *testing.T) {
	job := testJob(t)
	hashA := job.SpecHash()
	// A second spec: a different seed changes the hash, not the shape.
	cfgB := testFleetConfig()
	cfgB.Seed = 4
	jobB, err := fleet.NewJob(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	hashB := jobB.SpecHash()
	if hashA == hashB {
		t.Fatal("test needs two distinct spec hashes")
	}

	s := openStore(t)
	if err := s.Put(hashA, 1, runChunk(t, job, 1)); err != nil {
		t.Fatal(err)
	}
	// Misfile it under hashB.
	if err := os.MkdirAll(filepath.Join(s.Dir(), "partials", hashB), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(entryPath(s, hashA, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(s, hashB, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Get(hashB, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("misfiled entry returned %v, want ErrNotFound", err)
	}
	if n := quarantined(t, s); n != 1 {
		t.Fatalf("quarantine dir holds %d entries: misfiled entry not quarantined", n)
	}
	// The original, correctly filed entry is untouched.
	if _, err := s.Get(hashA, 1); err != nil {
		t.Fatalf("original entry: %v", err)
	}
}

// TestStoreBadHashArgument: malformed spec hashes are rejected at the
// API instead of producing odd paths.
func TestStoreBadHashArgument(t *testing.T) {
	s := openStore(t)
	for _, h := range []string{"", "short", "../../../../etc/passwd-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "ABCDEF0000000000000000000000000000000000000000000000000000000000"} {
		if _, err := s.Get(h, 0); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("hash %q accepted by Get: %v", h, err)
		}
		if err := s.Put(h, 0, &fleet.ChunkPartial{}); err == nil {
			t.Fatalf("hash %q accepted by Put", h)
		}
	}
}

// TestStoreConcurrentPutsOfNewSpec: eight Puts of distinct chunks of a
// spec the store has never seen, all at once, each create or find the
// spec's directory, and every entry reads back.
func TestStoreConcurrentPutsOfNewSpec(t *testing.T) {
	job := testJob(t)
	s := openStore(t)
	cp := runChunk(t, job, 0)
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			labeled := *cp
			labeled.Chunk = ci
			errs[ci] = s.Put(job.SpecHash(), ci, &labeled)
		}()
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("Put of chunk %d: %v", ci, err)
		}
		got, err := s.Get(job.SpecHash(), ci)
		if err != nil {
			t.Fatalf("Get of chunk %d: %v", ci, err)
		}
		want := *cp
		want.Chunk = ci
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("chunk %d read back differs from what was put", ci)
		}
	}
}
