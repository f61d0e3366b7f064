package fleetsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"capybara/internal/fleet"
)

// The journal suite. The journal log's only mutating operation is an
// append, so the states a crash can leave it in are exactly its byte
// prefixes; TestServiceJournalEveryPrefix restarts on each of them.

// TestServiceJournalEveryPrefix records the journal log of a scripted
// run (a cold job, a job of the same spec canceled while queued,
// and a warm resubmit) and then, for every byte prefix of that log,
// restarts a service on a copy of the store whose log is the prefix.
// Every job with a complete record must exist in its last complete
// record's state, a queued one re-running to serve fleet.Run's bytes;
// no other job may exist; the next submit takes the next ID; and after
// Close the log holds the prefix's complete records followed by whole
// records only. Every job of the run has one spec, whose chunks and
// reports the store holds, so a restart writes only the log, which is
// checked: each prefix then starts from the same copy of the store with
// only its log rewritten, instead of creating the copy's files again.
func TestServiceJournalEveryPrefix(t *testing.T) {
	cfg := fleet.Config{N: 16, Seed: 5, Scale: 0.05, ChunkSize: 8}
	spec := fleet.Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize}
	wantCSV, wantJSON := reports(t, cfg)

	recorded := t.TempDir()
	svc := openService(t, recorded, ServiceConfig{Jobs: 1, MaxConcurrent: 1})
	svc.sem <- struct{}{} // hold the only run slot: both jobs stay queued
	cold, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := svc.Cancel(canceled.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel while queued: %+v, %v", st, err)
	}
	<-svc.sem
	if st := waitDone(t, svc, cold.ID); st.State != StateDone || st.Computed != st.Chunks {
		t.Fatalf("cold job: %+v", st)
	}
	warm, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, warm.ID); st.State != StateDone || st.Computed != 0 {
		t.Fatalf("warm job: %+v", st)
	}
	svc.Close()

	logPath := filepath.Join("jobs", journalLog)
	log, err := os.ReadFile(filepath.Join(recorded, logPath))
	if err != nil {
		t.Fatal(err)
	}
	recs := decodeLines(t, log)
	if len(recs) != 6 {
		t.Fatalf("scripted run journaled %d records, want 6: %+v", len(recs), recs)
	}
	ends := make([]int, len(recs)) // ends[i]: the log's length once record i is whole
	for i, off := 0, 0; i < len(recs); i++ {
		off += bytes.IndexByte(log[off:], '\n') + 1
		ends[i] = off
	}

	dir := t.TempDir()
	svc = openService(t, dir, ServiceConfig{}) // lays out an empty store
	svc.Close()
	for _, name := range []string{
		filepath.Join("partials", cold.SpecHash, chunkFile(0)),
		filepath.Join("partials", cold.SpecHash, chunkFile(1)),
		filepath.Join("reports", reportName(cold.SpecHash, false)),
		filepath.Join("reports", reportName(cold.SpecHash, true)),
	} {
		data, err := os.ReadFile(filepath.Join(recorded, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store := storeFiles(t, dir)
	delete(store, logPath)
	t.Logf("restarting on each of the %d byte prefixes of a %d-record log", len(log)+1, len(recs))
	for p := 0; p <= len(log); p++ {
		want := make(map[string]string) // job ID → state of its last complete record
		complete, maxID := 0, 0
		for i, rec := range recs {
			if ends[i] <= p {
				want[rec.ID] = rec.State
				complete = ends[i]
				maxID = max(maxID, idNumber(rec.ID))
			}
		}
		if err := os.WriteFile(filepath.Join(dir, logPath), log[:p], 0o644); err != nil {
			t.Fatal(err)
		}

		svc := openService(t, dir, ServiceConfig{Jobs: 1})
		var ids []string
		for _, st := range svc.List() {
			ids = append(ids, st.ID)
		}
		var wantIDs []string
		// order-independent: the IDs are sorted before they are compared.
		for id := range want {
			wantIDs = append(wantIDs, id)
		}
		sort.Strings(wantIDs)
		if fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
			t.Fatalf("prefix %d: daemon lists %v, want %v", p, ids, wantIDs)
		}
		for _, id := range wantIDs {
			if want[id] == StateQueued {
				if st := waitDone(t, svc, id); st.State != StateDone {
					t.Fatalf("prefix %d: queued job %s re-ran to %s (%s)", p, id, st.State, st.Error)
				}
				checkReports(t, svc, id, wantCSV, wantJSON)
			} else if st, _ := svc.Status(id); st.State != want[id] {
				t.Fatalf("prefix %d: job %s is %s, want %s", p, id, st.State, want[id])
			}
		}
		next, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("prefix %d: submit: %v", p, err)
		}
		if wantID := fmt.Sprintf("j%06d", maxID+1); next.ID != wantID {
			t.Fatalf("prefix %d: next submit got %s, want %s", p, next.ID, wantID)
		}
		svc.Close()
		after, err := os.ReadFile(filepath.Join(dir, logPath))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, log[:complete]) {
			t.Fatalf("prefix %d: the log's %d complete bytes did not survive the restart", p, complete)
		}
		decodeLines(t, after)
		files := storeFiles(t, dir)
		delete(files, logPath)
		if len(files) != len(store) {
			t.Fatalf("prefix %d: the restart added or removed a file beside the log", p)
		}
		for name, b := range store {
			if a, ok := files[name]; !ok || !os.SameFile(a, b) || a.Size() != b.Size() || !a.ModTime().Equal(b.ModTime()) {
				t.Fatalf("prefix %d: the restart rewrote %s", p, name)
			}
		}
	}
}

// legacyJournal writes rec as an older binary wrote a job's journal:
// jobs/<id>.json, indented JSON and a newline.
func legacyJournal(t *testing.T, dir string, rec jobRecord) {
	t.Helper()
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", rec.ID+".json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readJobsDir returns the contents of every file in dir's jobs/ but
// the journal log, by name.
func readJobsDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range ents {
		if e.Name() == journalLog {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, "jobs", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestServiceLegacyJournalFiles: a store whose jobs an older binary
// journaled in per-job files (a done job whose reports exist, a queued
// job and a canceled one, plus a torn temp file) comes back as it was.
// The done and canceled jobs are served as they are; the queued one
// runs to done with fleet.Run's bytes, and its done record goes to the
// log. No legacy file is written. On a second restart the log's done
// record wins over the file's queued one: the job is done at once and
// nothing is appended.
func TestServiceLegacyJournalFiles(t *testing.T) {
	doneCfg := fleet.Config{N: 16, Seed: 5, Scale: 0.05, ChunkSize: 8}
	queuedCfg := fleet.Config{N: 16, Seed: 6, Scale: 0.05, ChunkSize: 8}
	doneCSV, doneJSON := reports(t, doneCfg)
	queuedCSV, queuedJSON := reports(t, queuedCfg)
	record := func(id string, cfg fleet.Config, state string) jobRecord {
		fj, err := fleet.NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return jobRecord{ID: id, Spec: specOf(cfg), SpecHash: fj.SpecHash(), State: state}
	}
	done := record("j000001", doneCfg, StateDone)
	queued := record("j000002", queuedCfg, StateQueued)
	canceled := record("j000003", fleet.Config{N: 16, Seed: 7, Scale: 0.05, ChunkSize: 8}, StateCanceled)

	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []jobRecord{done, queued, canceled} {
		legacyJournal(t, dir, rec)
	}
	torn, err := json.MarshalIndent(record("j000004", doneCfg, StateQueued), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", ".tmp-4242-9-j000004.json"), torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	for asJSON, data := range map[bool][]byte{false: doneCSV, true: doneJSON} {
		if err := os.WriteFile(filepath.Join(dir, "reports", reportName(done.SpecHash, asJSON)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	legacy := readJobsDir(t, dir)

	svc := openService(t, dir, ServiceConfig{Jobs: 1})
	if st, _ := svc.Status(done.ID); st.State != StateDone || st.Loaded != st.Chunks {
		t.Fatalf("legacy done job: %+v", st)
	}
	checkReports(t, svc, done.ID, doneCSV, doneJSON)
	if st, _ := svc.Status(canceled.ID); st.State != StateCanceled {
		t.Fatalf("legacy canceled job: %+v", st)
	}
	if st := waitDone(t, svc, queued.ID); st.State != StateDone || st.Computed != st.Chunks {
		t.Fatalf("legacy queued job: %+v", st)
	}
	checkReports(t, svc, queued.ID, queuedCSV, queuedJSON)
	if n := len(svc.List()); n != 3 {
		t.Fatalf("daemon lists %d jobs, want 3", n)
	}
	svc.Close()
	recs := logRecords(t, dir)
	if len(recs) != 1 || recs[0].ID != queued.ID || recs[0].State != StateDone {
		t.Fatalf("log holds %+v, want only %s's done record", recs, queued.ID)
	}
	log, err := os.ReadFile(filepath.Join(dir, "jobs", journalLog))
	if err != nil {
		t.Fatal(err)
	}

	svc = openService(t, dir, ServiceConfig{Jobs: 1})
	if st, _ := svc.Status(queued.ID); st.State != StateDone {
		t.Fatalf("after a second restart the once-queued job is %s", st.State)
	}
	checkReports(t, svc, queued.ID, queuedCSV, queuedJSON)
	svc.Close()
	if again, err := os.ReadFile(filepath.Join(dir, "jobs", journalLog)); err != nil || !bytes.Equal(again, log) {
		t.Fatalf("second restart changed the log (%v):\n%s\nthen\n%s", err, log, again)
	}
	if got := readJobsDir(t, dir); fmt.Sprint(got) != fmt.Sprint(legacy) {
		t.Fatal("a legacy journal file was written, added or removed")
	}
}

// TestServiceRejectedSpecStaysListed: a journaled job whose spec this
// binary rejects is listed as failed with the rejection as its error,
// kept out of the spec index, and journaled failed once: restarts
// append nothing. IDs go on after it.
func TestServiceRejectedSpecStaysListed(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	const id = "j000007"
	legacyJournal(t, dir, jobRecord{ID: id, Spec: fleet.Spec{N: 0, Seed: 3, Scale: 0.05}, State: StateQueued})

	var log []byte
	for gen := 0; gen < 3; gen++ {
		svc := openService(t, dir, ServiceConfig{})
		st, ok := svc.Status(id)
		if !ok || st.State != StateFailed || !strings.Contains(st.Error, "N must be positive") {
			t.Fatalf("generation %d: rejected job is %+v (found %v), want failed with the rejection", gen, st, ok)
		}
		if list := svc.List(); len(list) != 1 || list[0] != st {
			t.Fatalf("generation %d: daemon lists %+v", gen, list)
		}
		if n := len(svc.specs); n != 0 {
			t.Fatalf("generation %d: the rejected spec is indexed (%d specs)", gen, n)
		}
		checkReleased(t, svc, id)
		svc.Close()
		again, err := os.ReadFile(filepath.Join(dir, "jobs", journalLog))
		if err != nil {
			t.Fatal(err)
		}
		if gen > 0 && !bytes.Equal(again, log) {
			t.Fatalf("generation %d appended to the log:\n%s", gen, again[len(log):])
		}
		log = again
	}
	if recs := logRecords(t, dir); len(recs) != 1 || recs[0].State != StateFailed || recs[0].Error == "" {
		t.Fatalf("log holds %+v, want one failed record", recs)
	}

	svc := openService(t, dir, ServiceConfig{})
	defer svc.Close()
	st, err := svc.Submit(fleet.Spec{N: 16, Seed: 4, Scale: 0.02, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000008" {
		t.Fatalf("submit after the rejected job got %s, want j000008", st.ID)
	}
}

// TestServiceCorruptJournalLine: a complete line of the log that is not
// a record is corruption, not a torn write. Startup fails naming the
// line's byte offset and leaves the log as it found it.
func TestServiceCorruptJournalLine(t *testing.T) {
	good, err := encodeRecord(&jobRecord{ID: "j000001", Spec: fleet.Spec{N: 16, Seed: 4, Scale: 0.02, ChunkSize: 8}, State: StateCanceled})
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{"not json": "{\"id\":\"j000002\",\n", "no id": "{}\n", "empty line": "\n"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			log := append(append(append([]byte(nil), good...), bad...), good...)
			path := filepath.Join(dir, "jobs", journalLog)
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := NewService(ServiceConfig{Store: store}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("byte %d", len(good))) {
				t.Fatalf("NewService over a corrupt line at byte %d: %v", len(good), err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, log) {
				t.Fatalf("failed startup changed the log (%v)", err)
			}
		})
	}
}
