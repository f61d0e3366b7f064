// Designspace regenerates the paper's design-space sweeps (Figures 3
// and 4) as CSV series suitable for plotting.
//
// Usage:
//
//	designspace [-fig 3|4|both] [-jobs N]
//
// Sweep points evaluate in parallel across -jobs workers (default:
// every CPU); the emitted series are identical at any worker count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"capybara/internal/experiments"
	"capybara/internal/prof"
)

func main() {
	fig := flag.String("fig", "both", "which sweep: 3, 4, or both")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel sweep jobs (1 forces the serial path)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stop, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "designspace:", err)
		os.Exit(1)
	}

	ctx := context.Background()
	switch *fig {
	case "3":
		err = figure3(ctx, *jobs)
	case "4":
		err = figure4(ctx, *jobs)
	case "both":
		if err = figure3(ctx, *jobs); err == nil {
			err = figure4(ctx, *jobs)
		}
	default:
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	// os.Exit skips defers, so the profile stop runs explicitly before
	// any error exit — a truncated profile is worse than none.
	if serr := stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = prof.WriteHeap(*memProfile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "designspace:", err)
		os.Exit(1)
	}
}

func figure3(ctx context.Context, jobs int) error {
	points, err := experiments.Figure3Parallel(ctx, jobs)
	if err != nil {
		return err
	}
	// Classify against the paper's example requirement (the dashed
	// line): ~1.5 Mops.
	regions := experiments.ClassifyFig3(points, 1.5)
	fmt.Println("# Figure 3 — atomicity vs capacitance (regions vs a 1.5 Mops requirement)")
	fmt.Println("capacitance_uF,operating_s,atomicity_Mops,region")
	for _, p := range points {
		fmt.Printf("%.1f,%.4f,%.4f,%s\n", float64(p.C)*1e6, float64(p.OnFor), p.Mops, regions[p.C])
	}
	fmt.Println()
	return nil
}

func figure4(ctx context.Context, jobs int) error {
	points, err := experiments.Figure4Parallel(ctx, jobs)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 4 — atomicity vs volume by technology")
	fmt.Println("technology,units,volume_mm3,atomicity_Mops")
	for _, p := range points {
		fmt.Printf("%s,%d,%.1f,%.4f\n", p.Tech, p.Units, float64(p.Volume), p.Mops)
	}
	return nil
}
