// Capybench regenerates every figure and table of the Capybara paper's
// evaluation and prints them as aligned text tables (optionally CSV).
//
// Usage:
//
//	capybench [-fig all|2|3|4|8|9|10|11|mech|char|capysat|ablations] [-seed N] [-csv] [-jobs N]
//	capybench -chaos N [-seed S] [-jobs N]
//
// Figures 8, 9, and 11 share one run matrix (every application under
// every power system), so asking for any of them runs the full grid.
// Independent simulations fan out across -jobs workers (default: every
// CPU); the emitted tables are byte-identical at any worker count, so
// -jobs only changes wall time, never a number.
//
// -chaos N runs N seeded fault-injection trials instead of figures:
// randomized devices with harvester outages injected at adversarial
// instants, with a physics-invariant registry checked after every
// simulator event (see internal/chaos). The exit status is non-zero if
// any invariant is violated; every violation is replayable from its
// printed seed and trial index.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"capybara/internal/chaos"
	"capybara/internal/core"
	"capybara/internal/experiments"
	"capybara/internal/prof"
	"capybara/internal/sim"
	"capybara/internal/viz"
)

func main() {
	fig := flag.String("fig", "all", "which figure/table to regenerate")
	seed := flag.Int64("seed", experiments.DefaultSeed, "experiment seed")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	orbits := flag.Int("orbits", 4, "orbits for the CapySat study")
	plot := flag.Bool("plot", false, "also render ASCII plots for figures 2, 3, 4, and 10")
	outDir := flag.String("out", "", "also write each table as a CSV file into this directory")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "parallel simulation jobs (1 forces the serial path)")
	chaosTrials := flag.Int("chaos", 0, "run N fault-injection trials instead of figures (non-zero exit on any invariant violation)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stop, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capybench:", err)
		os.Exit(1)
	}
	if *chaosTrials > 0 {
		err = runChaos(*chaosTrials, *seed, *jobs)
	} else {
		err = run(*fig, *seed, *asCSV, *orbits, *plot, *outDir, *jobs)
	}
	stop()
	if err == nil {
		err = prof.WriteHeap(*memProfile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "capybench:", err)
		os.Exit(1)
	}
}

func run(fig string, seed int64, asCSV bool, orbits int, plot bool, outDir string, jobs int) error {
	ctx := context.Background()
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	emit := func(t *experiments.Table) error {
		if asCSV {
			if err := t.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else if err := t.Fprint(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if outDir != "" {
			f, err := os.Create(filepath.Join(outDir, slugify(t.Title)+".csv"))
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			// A failed write-back (NFS, quota) surfaces only here.
			return f.Close()
		}
		return nil
	}

	all := fig == "all"
	matrixNeeded := all || fig == "8" || fig == "9" || fig == "11"

	if all || fig == "2" {
		r, err := experiments.Figure2()
		if err != nil {
			return err
		}
		if err := emit(r.Table()); err != nil {
			return err
		}
		if plot {
			plotFigure2(r)
		}
	}
	if all || fig == "3" {
		points, err := experiments.Figure3Parallel(ctx, jobs)
		if err != nil {
			return err
		}
		if err := emit(experiments.Fig3Table(points)); err != nil {
			return err
		}
		if plot {
			plotFigure3(points)
		}
	}
	if all || fig == "4" {
		points, err := experiments.Figure4Parallel(ctx, jobs)
		if err != nil {
			return err
		}
		if err := emit(experiments.Fig4Table(points)); err != nil {
			return err
		}
		if plot {
			plotFigure4(points)
		}
	}
	if matrixNeeded {
		m, err := experiments.RunMatrixParallel(ctx, seed, 1.0, jobs)
		if err != nil {
			return err
		}
		if all || fig == "8" {
			if err := emit(m.AccuracyTable()); err != nil {
				return err
			}
		}
		if all || fig == "9" {
			if err := emit(m.LatencyTable()); err != nil {
				return err
			}
		}
		if all || fig == "11" {
			if err := emit(m.GapTable()); err != nil {
				return err
			}
			if !asCSV {
				printGapHistograms(m)
			}
		}
	}
	if all || fig == "10" {
		for _, cfg := range []experiments.Fig10Config{
			experiments.TASensitivity(), experiments.GRCSensitivity(),
		} {
			cfg.Seed = seed
			cfg.Jobs = jobs
			points, err := experiments.Figure10Ctx(ctx, cfg)
			if err != nil {
				return err
			}
			if err := emit(experiments.Fig10Table(cfg, points)); err != nil {
				return err
			}
			if plot {
				plotFigure10(cfg, points)
			}
		}
	}
	if all || fig == "mech" {
		if err := emit(experiments.MechanismTable(experiments.Mechanisms())); err != nil {
			return err
		}
	}
	if all || fig == "char" {
		if err := emit(experiments.Characterization()); err != nil {
			return err
		}
	}
	if all || fig == "capysat" {
		if err := emit(experiments.CapySat(orbits).Table()); err != nil {
			return err
		}
	}
	if all || fig == "ablations" {
		if err := emit(experiments.AblateBypass().Table()); err != nil {
			return err
		}
		if err := emit(experiments.SwitchDefaultTable(experiments.AblateSwitchDefault())); err != nil {
			return err
		}
		if err := emit(experiments.ESRTable(experiments.AblateESR())); err != nil {
			return err
		}
		if err := emit(experiments.DeficitTable(experiments.AblateDeficit())); err != nil {
			return err
		}
		if err := emit(experiments.SleepTable(experiments.AblateSleep())); err != nil {
			return err
		}
	}
	if all || fig == "seeds" {
		var rows []experiments.SeedStats
		for _, app := range []string{"TempAlarm", "GestureFast", "CorrSense"} {
			r, err := experiments.MultiSeedParallel(ctx, app,
				[]core.Variant{core.Fixed, core.CapyR, core.CapyP},
				experiments.DefaultSeeds(5), 1.0, jobs)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		if err := emit(experiments.MultiSeedTable(rows)); err != nil {
			return err
		}
	}
	if all || fig == "related" {
		if err := emit(experiments.Federated().Table()); err != nil {
			return err
		}
		ckpt, err := experiments.Checkpointing()
		if err != nil {
			return err
		}
		if err := emit(ckpt.Table()); err != nil {
			return err
		}
	}
	if !all {
		switch fig {
		case "2", "3", "4", "8", "9", "10", "11", "mech", "char", "capysat", "ablations", "related", "seeds":
		default:
			return fmt.Errorf("unknown figure %q", fig)
		}
	}
	return nil
}

// runChaos executes the fault-injection harness and reports its
// invariant verdicts; any violation is a non-zero exit.
func runChaos(trials int, seed int64, jobs int) error {
	rep, err := chaos.Run(context.Background(), chaos.Config{
		Trials: trials,
		Seed:   seed,
		Jobs:   jobs,
	})
	if err != nil {
		return err
	}
	fmt.Print(rep.Summary())
	if n := len(rep.Violations); n > 0 {
		return fmt.Errorf("%d invariant violation(s)", n)
	}
	return nil
}

func printGapHistograms(m *experiments.Matrix) {
	fmt.Println("Figure 11 — inter-sample interval histograms (TempAlarm)")
	for _, v := range []core.Variant{core.Fixed, core.CapyR, core.CapyP} {
		h := m.GapHistogram(v)
		fmt.Printf("  %s:\n", v)
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			fmt.Printf("    %-16s %d\n", h.BinLabel(i), c)
		}
	}
	fmt.Println()
}

func plotFigure2(r *experiments.Fig2Result) {
	for _, panel := range []struct {
		name  string
		trace *sim.Trace
	}{{"low capacity", r.LowTrace}, {"high capacity", r.HighTrace}} {
		p := viz.New("Figure 2 — buffer voltage, " + panel.name)
		p.XLabel, p.YLabel = "seconds", "volts"
		var xs, ys []float64
		for _, s := range panel.trace.Samples {
			xs = append(xs, float64(s.T))
			ys = append(ys, float64(s.V))
		}
		p.Add("V", '*', xs, ys)
		p.Render(os.Stdout)
		fmt.Println()
	}
}

func plotFigure3(points []experiments.Fig3Point) {
	p := viz.New("Figure 3 — atomicity vs capacitance")
	p.XLabel, p.YLabel = "capacitance (F, log)", "Mops"
	p.LogX = true
	var xs, ys []float64
	for _, pt := range points {
		xs = append(xs, float64(pt.C))
		ys = append(ys, pt.Mops)
	}
	p.Add("atomicity", '*', xs, ys)
	p.Render(os.Stdout)
	fmt.Println()
}

func plotFigure4(points []experiments.Fig4Point) {
	p := viz.New("Figure 4 — atomicity vs volume by technology")
	p.XLabel, p.YLabel = "volume (mm³)", "Mops (log)"
	p.LogY = true
	byTech := map[string][][2]float64{}
	for _, pt := range points {
		byTech[pt.Tech] = append(byTech[pt.Tech], [2]float64{float64(pt.Volume), pt.Mops})
	}
	markers := map[string]byte{"ceramic-X5R": 'c', "supercap-CPH3225A": 's'}
	for tech, pts := range byTech {
		var xs, ys []float64
		for _, q := range pts {
			xs = append(xs, q[0])
			ys = append(ys, q[1])
		}
		m := markers[tech]
		if m == 0 {
			m = '?'
		}
		p.Add(tech, m, xs, ys)
	}
	p.Render(os.Stdout)
	fmt.Println()
}

func plotFigure10(cfg experiments.Fig10Config, points []experiments.Fig10Point) {
	p := viz.New("Figure 10 — reported fraction vs mean inter-arrival (" + cfg.App + ")")
	p.XLabel, p.YLabel = "mean inter-arrival (s)", "fraction reported"
	markers := map[core.Variant]byte{
		core.Continuous: 'c', core.Fixed: 'f', core.CapyR: 'r', core.CapyP: 'p',
	}
	for _, v := range cfg.Variants {
		var xs, ys []float64
		for _, pt := range points {
			if pt.Variant == v {
				xs = append(xs, float64(pt.Mean))
				ys = append(ys, pt.Reported)
			}
		}
		p.Add(v.String(), markers[v], xs, ys)
	}
	p.Render(os.Stdout)
	fmt.Println()
}

// slugify turns a table title into a file name.
func slugify(title string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == '-', r == '_':
			b.WriteByte('-')
		}
	}
	s := b.String()
	for strings.Contains(s, "--") {
		s = strings.ReplaceAll(s, "--", "-")
	}
	return strings.Trim(s, "-")
}
