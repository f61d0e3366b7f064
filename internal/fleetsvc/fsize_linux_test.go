//go:build linux

package fleetsvc

import (
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"capybara/internal/fleet"
)

// Write failures from a full disk, injected for real: RLIMIT_FSIZE caps
// the size of every file the process writes, and Go ignores SIGXFSZ, so
// a write past the cap writes up to it and then fails with EFBIG. The
// limit is process-wide, so these tests do not run in parallel, and
// nothing is logged while it is in force.

// limitFileSize caps every file this process writes at n bytes until
// lift is called; lift runs at cleanup too.
func limitFileSize(t *testing.T, n uint64) (lift func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if old.Cur <= n {
		t.Skipf("file size already limited to %d bytes", old.Cur)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: n, Max: old.Max}); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	var err error
	lift = func() {
		once.Do(func() { err = syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old) })
	}
	t.Cleanup(func() {
		lift()
		if err != nil {
			t.Errorf("restoring the file size limit: %v", err)
		}
	})
	return lift
}

// TestServiceJournalPartialAppend: a submit whose journal append writes
// only part of its line answers an error, leaves no job in the table,
// and cuts the log back to its length before the append; after the cap
// is lifted, a restart recovers every earlier record.
func TestServiceJournalPartialAppend(t *testing.T) {
	dir := t.TempDir()
	svc := openService(t, dir, ServiceConfig{Jobs: 1})
	first, err := svc.Submit(fleet.Spec{N: 16, Seed: 5, Scale: 0.05, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, first.ID); st.State != StateDone {
		t.Fatalf("first job: %+v", st)
	}
	path := filepath.Join(dir, "jobs", journalLog)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	lift := limitFileSize(t, uint64(len(before))+5)
	_, submitErr := svc.Submit(fleet.Spec{N: 16, Seed: 6, Scale: 0.05, ChunkSize: 8})
	lift()

	if submitErr == nil {
		t.Fatal("submit succeeded with its journal append cut short")
	}
	if list := svc.List(); len(list) != 1 || list[0].ID != first.ID {
		t.Fatalf("failed submit left jobs %+v", list)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(before)) {
		t.Fatalf("log is %d bytes after the failed append, want %d", info.Size(), len(before))
	}
	svc.Close()

	svc = openService(t, dir, ServiceConfig{Jobs: 1})
	defer svc.Close()
	if list := svc.List(); len(list) != 1 || list[0].ID != first.ID || list[0].State != StateDone {
		t.Fatalf("restart lists %+v, want only %s done", list, first.ID)
	}
	if recs := logRecords(t, dir); len(recs) != 2 {
		t.Fatalf("log holds %d records, want the first job's 2", len(recs))
	}
}

// TestStorePutLeavesNoTempFile: a Put whose write fails partway returns
// the error and removes its temp file, which nothing would read or
// collect.
func TestStorePutLeavesNoTempFile(t *testing.T) {
	s := openStore(t)
	job, err := fleet.NewJob(fleet.Config{N: 16, Seed: 5, Scale: 0.02, ChunkSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	cp := runChunk(t, job, 0)
	entry, err := EncodeEntry(job.SpecHash(), 0, cp)
	if err != nil {
		t.Fatal(err)
	}

	lift := limitFileSize(t, uint64(len(entry))/2)
	putErr := s.Put(job.SpecHash(), 0, cp)
	lift()

	if putErr == nil {
		t.Fatal("Put succeeded past the file size limit")
	}
	ents, err := os.ReadDir(filepath.Dir(entryPath(s, job.SpecHash(), 0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("failed Put left %s", e.Name())
	}
}
