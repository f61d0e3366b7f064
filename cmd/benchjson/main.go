// Benchjson converts `go test -bench` output into a machine-readable
// trajectory file so performance regressions show up as a diff, not a
// feeling.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' . | benchjson -out BENCH_sim.json
//
// The benchmark output is echoed through to stdout unchanged, so the
// tool can sit at the end of a pipe without hiding anything. The JSON
// records ns/op, B/op, allocs/op, and any custom ReportMetric series
// (e.g. Figure 8's accuracy metrics) per benchmark, plus the cpu and
// goos/goarch context lines go test prints.
//
// Compare mode gates two trajectory files against each other:
//
//	benchjson -compare [-threshold 0.25] old.json new.json
//
// It prints a per-benchmark ns/op delta table and exits 1 if any
// benchmark present in both files regressed by more than the threshold
// (a fraction: 0.25 means "25% slower fails"). Added and removed
// benchmarks are reported but never fail the gate — coverage changes
// are a review question, not a perf regression. Benchmarks whose old
// ns/op is below -min are likewise reported but never fail: at one
// iteration a microsecond-scale benchmark's timing is dominated by
// scheduling noise, not by the code under test.
//
// Custom ReportMetric series gate too, with an explicit direction —
// ns/op always reads "lower is better", but devices/sec does not:
//
//	benchjson -compare -metric devices/sec:+ -metric allocs/attempt:-:0.05 old.json new.json
//
// Each -metric is name:dir[:threshold]: dir is '+' (higher is better,
// a drop fails) or '-' (lower is better, a rise fails); the optional
// threshold overrides -threshold for that metric. A gated metric
// missing from either side is reported but never fails — same policy
// as added/removed benchmarks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_sim.json schema.
type File struct {
	// Context lines from go test ("cpu: ...", "goos: ...").
	Context    []string `json:"context,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// metricGate is one parsed -metric flag: a named custom metric to
// compare, the direction that counts as a regression, and an optional
// per-metric threshold (negative means "inherit -threshold").
type metricGate struct {
	name         string
	higherBetter bool
	threshold    float64
}

// metricGates implements flag.Value so -metric repeats.
type metricGates []metricGate

func (g *metricGates) String() string {
	var parts []string
	for _, m := range *g {
		dir := "-"
		if m.higherBetter {
			dir = "+"
		}
		parts = append(parts, m.name+":"+dir)
	}
	return strings.Join(parts, ",")
}

func (g *metricGates) Set(s string) error {
	// name:dir[:threshold] — split from the right so metric names may
	// themselves contain ':'-free slashes like devices/sec.
	rest := s
	thr := -1.0
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		if v, err := strconv.ParseFloat(rest[i+1:], 64); err == nil {
			if v < 0 {
				return fmt.Errorf("metric %q: threshold must be >= 0", s)
			}
			thr = v
			rest = rest[:i]
		}
	}
	i := strings.LastIndexByte(rest, ':')
	if i <= 0 || i != len(rest)-2 {
		return fmt.Errorf("metric %q: want name:dir[:threshold] with dir '+' or '-'", s)
	}
	name, dir := rest[:i], rest[i+1:]
	if dir != "+" && dir != "-" {
		return fmt.Errorf("metric %q: direction must be '+' (higher is better) or '-' (lower is better)", s)
	}
	*g = append(*g, metricGate{name: name, higherBetter: dir == "+", threshold: thr})
	return nil
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output file")
	compare := flag.Bool("compare", false, "compare two trajectory files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 0.25, "ns/op regression fraction that fails -compare (0.25 = 25% slower)")
	minNs := flag.Float64("min", 0, "old ns/op below this never fails -compare (noise floor for short runs)")
	var gates metricGates
	flag.Var(&gates, "metric", "gate a custom metric in -compare: name:dir[:threshold], dir '+' = higher is better (repeatable)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold, *minNs, gates, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	file, err := parse(os.Stdin, os.Stdout)
	if err == nil {
		err = write(*out, file)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runCompare loads two trajectory files and renders the ns/op delta
// table. It returns true when any benchmark present in both files is
// slower in new by more than threshold (and above the minNs noise
// floor).
func runCompare(oldPath, newPath string, threshold, minNs float64, gates metricGates, w io.Writer) (bool, error) {
	oldFile, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newFile, err := load(newPath)
	if err != nil {
		return false, err
	}
	return diff(oldFile, newFile, threshold, minNs, gates, w), nil
}

// diff writes the comparison table and reports whether the gate fails.
// Benchmarks are keyed by name; ordering follows the new file so the
// table tracks the current benchmark suite.
func diff(oldFile, newFile *File, threshold, minNs float64, gates metricGates, w io.Writer) bool {
	old := make(map[string]Result, len(oldFile.Benchmarks))
	for _, r := range oldFile.Benchmarks {
		old[r.Name] = r
	}
	fmt.Fprintf(w, "%-32s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	regressed := false
	seen := make(map[string]bool, len(newFile.Benchmarks))
	for _, r := range newFile.Benchmarks {
		seen[r.Name] = true
		prev, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-32s %14s %14.0f %9s\n", r.Name, "-", r.NsPerOp, "added")
			continue
		}
		if prev.NsPerOp <= 0 {
			fmt.Fprintf(w, "%-32s %14.0f %14.0f %9s\n", r.Name, prev.NsPerOp, r.NsPerOp, "n/a")
			continue
		}
		delta := r.NsPerOp/prev.NsPerOp - 1
		mark := ""
		switch {
		case delta > threshold && prev.NsPerOp < minNs:
			mark = "  (noise floor)"
		case delta > threshold:
			mark = "  FAIL"
			regressed = true
		}
		fmt.Fprintf(w, "%-32s %14.0f %14.0f %+8.1f%%%s\n", r.Name, prev.NsPerOp, r.NsPerOp, 100*delta, mark)
		if diffMetrics(prev, r, threshold, gates, w) {
			regressed = true
		}
	}
	var removed []string
	for name := range old {
		if !seen[name] {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "%-32s %14.0f %14s %9s\n", name, old[name].NsPerOp, "-", "removed")
	}
	if regressed {
		fmt.Fprintf(w, "FAIL: regression above threshold (ns/op %.0f%%, or a gated metric)\n", 100*threshold)
	}
	return regressed
}

// diffMetrics renders the gated custom-metric rows for one benchmark
// pair and reports whether any gate failed. Gates are direction-aware:
// '+' metrics fail when they drop, '-' metrics fail when they rise.
func diffMetrics(prev, r Result, threshold float64, gates metricGates, w io.Writer) bool {
	failed := false
	for _, g := range gates {
		oldV, oldOK := prev.Metrics[g.name]
		newV, newOK := r.Metrics[g.name]
		label := "  " + r.Name + " " + g.name
		switch {
		case !oldOK && !newOK:
			continue // this benchmark doesn't report the metric
		case !oldOK:
			fmt.Fprintf(w, "%-32s %14s %14g %9s\n", label, "-", newV, "added")
			continue
		case !newOK:
			fmt.Fprintf(w, "%-32s %14g %14s %9s\n", label, oldV, "-", "removed")
			continue
		case oldV == 0:
			fmt.Fprintf(w, "%-32s %14g %14g %9s\n", label, oldV, newV, "n/a")
			continue
		}
		thr := g.threshold
		if thr < 0 {
			thr = threshold
		}
		// delta is oriented so positive always means "worse".
		delta := newV/oldV - 1
		if g.higherBetter {
			delta = -delta
		}
		mark := ""
		if delta > thr {
			mark = "  FAIL"
			failed = true
		}
		change := 100 * (newV/oldV - 1)
		fmt.Fprintf(w, "%-32s %14g %14g %+8.1f%%%s\n", label, oldV, newV, change, mark)
	}
	return failed
}

// load reads a trajectory file written by a previous benchjson run.
func load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file := &File{}
	if err := json.Unmarshal(b, file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

func parse(in *os.File, echo *os.File) (*File, error) {
	file := &File{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		switch {
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			file.Context = append(file.Context, strings.TrimSpace(line))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBenchLine(line); ok {
				file.Benchmarks = append(file.Benchmarks, r)
			}
		}
	}
	return file, sc.Err()
}

// parseBenchLine parses one result line:
//
//	BenchmarkFigure8  3  498694333 ns/op  0.7306 capyP-accuracy  234364018 B/op  353008 allocs/op
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix go test appends under -cpu.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		case "MB/s":
			// Throughput is derivable from ns/op; skip.
		default:
			if r.Metrics == nil {
				r.Metrics = make(map[string]float64)
			}
			r.Metrics[unit] = val
		}
	}
	return r, true
}

func write(path string, file *File) error {
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
