// Package prof wires runtime/pprof file output into the CLIs: a
// -cpuprofile/-memprofile pair is all that is needed to feed
// `go tool pprof` when hunting simulator regressions, without pulling
// in net/http/pprof and an HTTP server.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU begins CPU profiling into path. It returns a stop function
// to defer; with an empty path it is a no-op.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap writes an allocation profile to path after forcing a GC so
// the numbers reflect live retention, matching `go test -memprofile`.
// With an empty path it is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("mem profile: %w", err)
	}
	// A failed write-back (NFS, quota) surfaces only at Close.
	if err := f.Close(); err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}
