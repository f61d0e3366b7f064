package prof

import (
	"os"
	"testing"
)

// TestWriteFailuresReported: runtime/pprof drops its writer's errors,
// so a profile written to a full disk must still fail through the
// error the stop function and WriteHeap return. /dev/full accepts the
// open and fails every write with ENOSPC.
func TestWriteFailuresReported(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	stop, err := StartCPU("/dev/full")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("cpu profile to /dev/full: stop returned nil")
	}
	if err := WriteHeap("/dev/full"); err == nil {
		t.Error("heap profile to /dev/full: WriteHeap returned nil")
	}
}
