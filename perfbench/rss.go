package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"syscall"
)

// peakRSS reports the resident set's high-water mark per round of work:
// resetPeakRSS before a round, peakRSSMiB after it. Rounds run the same
// work, so their median peak is steady where the process-wide peak
// would move with whichever round happened to meet a late collection.
// Without a resettable mark (a kernel without clear_refs), every round
// reads the process-wide peak.
func resetPeakRSS() {
	// Writing 5 to clear_refs resets VmHWM to the current RSS.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns VmHWM in MiB, or the process-wide peak from
// getrusage when /proc is unavailable.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := bytes.CutPrefix(sc.Bytes(), []byte("VmHWM:")); ok {
				kb, err := strconv.ParseFloat(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
