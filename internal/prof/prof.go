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
// that ends the profile and reports the first failed write or the
// file's Close error; with an empty path both are no-ops.
func StartCPU(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile() // returns once every profile write is done
		if err := f.close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		return nil
	}, nil
}

// WriteHeap writes an allocation profile to path after forcing a GC so
// the numbers reflect live retention, matching `go test -memprofile`.
// It reports the first failed write or the file's Close error. With an
// empty path it is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := create(path)
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("mem profile: %w", err)
	}
	return nil
}

// file is a profile's output file that keeps its first write error.
// runtime/pprof drops the errors its writer returns, so without it a
// full disk would leave a truncated profile and a clean exit.
type file struct {
	f   *os.File
	err error
}

func create(path string) (*file, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &file{f: f}, nil
}

func (w *file) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.f.Write(p)
	w.err = err
	return n, err
}

// close closes the file and returns the first write error, else
// Close's: a failed write-back (NFS, quota) surfaces only at Close.
func (w *file) close() error {
	err := w.f.Close()
	if w.err != nil {
		return w.err
	}
	return err
}
