package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"capybara/internal/core"
	"capybara/internal/metrics"
	"capybara/internal/units"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	var buf bytes.Buffer
	if err := tbl.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
	buf.Reset()
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n3,4\n" {
		t.Fatalf("CSV = %q", got)
	}
}

func TestFigure2Shapes(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	// Low capacity: reactive sampling, but the packet never completes.
	if r.LowPackets != 0 {
		t.Errorf("low capacity completed %d packets, want 0 (failed packet)", r.LowPackets)
	}
	if len(r.LowSamples) < 15 {
		t.Errorf("low capacity only took %d samples", len(r.LowSamples))
	}
	// High capacity: completes packets, but samples arrive in bursts
	// separated by long recharges.
	if r.HighPackets == 0 {
		t.Error("high capacity completed no packets")
	}
	lowGaps := metrics.Summarize(diffs(r.LowSamples))
	highGaps := metrics.Summarize(diffs(r.HighSamples))
	if highGaps.Max < 3*lowGaps.Max {
		t.Errorf("high-capacity max gap %v should dwarf low-capacity %v", highGaps.Max, lowGaps.Max)
	}
	if len(r.LowTrace.Samples) == 0 || len(r.HighTrace.Samples) == 0 {
		t.Error("traces empty")
	}
	if tbl := r.Table(); len(tbl.Rows) != 2 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

// figure3 runs the capacitance sweep on every CPU.
func figure3(t *testing.T) []Fig3Point {
	t.Helper()
	points, err := Figure3Parallel(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestFigure3Monotonic(t *testing.T) {
	points := figure3(t)
	if len(points) < 20 {
		t.Fatalf("too few sweep points: %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Mops <= points[i-1].Mops {
			t.Fatalf("atomicity not increasing with capacitance at %v", points[i].C)
		}
	}
	// Calibration: the 10³–10⁴ µF range lands in the paper's 0–4 Mops.
	for _, p := range points {
		if p.C >= 1000*units.MicroFarad && p.C <= 20*units.MilliFarad {
			if p.Mops <= 0 || p.Mops > 100 {
				t.Fatalf("Mops at %v = %g out of plausible range", p.C, p.Mops)
			}
		}
	}
	if tbl := Fig3Table(points); len(tbl.Rows) != len(points) {
		t.Fatal("table row mismatch")
	}
}

func TestFigure4TechnologyShapes(t *testing.T) {
	points, err := Figure4Parallel(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var ceramic, super []Fig4Point
	for _, p := range points {
		switch p.Tech {
		case "ceramic-X5R":
			ceramic = append(ceramic, p)
		case "supercap-CPH3225A":
			super = append(super, p)
		}
	}
	if len(ceramic) == 0 || len(super) == 0 {
		t.Fatal("missing technology sweeps")
	}
	// At comparable volume the supercap dominates ceramic atomicity.
	lastC, lastS := ceramic[len(ceramic)-1], super[len(super)-1]
	if lastS.Mops <= lastC.Mops {
		t.Fatalf("supercap (%g Mops) should beat ceramic (%g Mops)", lastS.Mops, lastC.Mops)
	}
	// Diminishing increase for the supercap on the paper's log axis:
	// the multiplicative growth factor shrinks with each added unit.
	if len(super) >= 3 {
		prevRatio := super[1].Mops / super[0].Mops
		for i := 2; i < len(super); i++ {
			ratio := super[i].Mops / super[i-1].Mops
			if ratio >= prevRatio {
				t.Fatalf("supercap growth factor not diminishing at unit %d: %g then %g",
					super[i].Units, prevRatio, ratio)
			}
			prevRatio = ratio
		}
	}
	if tbl := Fig4Table(points); len(tbl.Rows) != len(points) {
		t.Fatal("table row mismatch")
	}
}

func TestMatrixScaledGrid(t *testing.T) {
	m, err := RunMatrixParallel(context.Background(), DefaultSeed, 0.15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 4 {
		t.Fatalf("apps in matrix = %d", len(m.Runs))
	}
	for app, byVariant := range m.Runs {
		if len(byVariant) != 4 {
			t.Fatalf("%s has %d variants", app, len(byVariant))
		}
	}
	acc := m.AccuracyTable()
	if len(acc.Rows) != 16 {
		t.Fatalf("accuracy rows = %d, want 16", len(acc.Rows))
	}
	lat := m.LatencyTable()
	if len(lat.Rows) != 16 {
		t.Fatalf("latency rows = %d, want 16", len(lat.Rows))
	}
	gaps := m.GapTable()
	if len(gaps.Rows) != 3 {
		t.Fatalf("gap rows = %d, want 3", len(gaps.Rows))
	}
	binned := 0
	for _, c := range m.GapHistogram(core.Fixed).Counts {
		binned += c
	}
	if binned == 0 {
		t.Fatal("empty gap histogram")
	}
}

func TestMatrixScaleValidation(t *testing.T) {
	if _, err := RunMatrixParallel(context.Background(), 1, 0, 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := RunMatrixParallel(context.Background(), 1, 1.5, 0); err == nil {
		t.Error("over-unity scale accepted")
	}
}

func TestFigure10SmallSweep(t *testing.T) {
	cfg := Fig10Config{
		App:      "TempAlarm",
		Means:    []units.Seconds{100, 400},
		Events:   8,
		Variants: []core.Variant{core.Fixed, core.CapyP},
		Seed:     DefaultSeed,
	}
	points, err := Figure10Ctx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	get := func(mean units.Seconds, v core.Variant) float64 {
		for _, p := range points {
			if p.Mean == mean && p.Variant == v {
				return p.Reported
			}
		}
		t.Fatalf("missing point %v/%v", mean, v)
		return 0
	}
	// Capybara beats Fixed at both means.
	for _, mean := range cfg.Means {
		if get(mean, core.CapyP) <= get(mean, core.Fixed) {
			t.Errorf("at mean %v Capy-P (%g) should beat Fixed (%g)",
				mean, get(mean, core.CapyP), get(mean, core.Fixed))
		}
	}
	tbl := Fig10Table(cfg, points)
	if len(tbl.Rows) != 2 || len(tbl.Header) != 3 {
		t.Fatalf("table shape %dx%d", len(tbl.Rows), len(tbl.Header))
	}
	if _, err := Figure10Ctx(context.Background(), Fig10Config{App: "nope"}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestSensitivityConfigs(t *testing.T) {
	ta := TASensitivity()
	if ta.App != "TempAlarm" || len(ta.Means) != 7 || len(ta.Variants) != 4 {
		t.Fatalf("TA config wrong: %+v", ta)
	}
	grc := GRCSensitivity()
	if grc.App != "GestureFast" || len(grc.Means) != 5 || len(grc.Variants) != 3 {
		t.Fatalf("GRC config wrong: %+v", grc)
	}
}

func TestMechanismsOrdering(t *testing.T) {
	rows := Mechanisms()
	if len(rows) != 3 {
		t.Fatalf("mechanisms = %d", len(rows))
	}
	byName := map[string]MechanismRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	sw, vt, vb := byName["switched-C"], byName["Vtop-threshold"], byName["Vbottom-threshold"]
	if !(sw.ColdStart < vt.ColdStart && vt.ColdStart < vb.ColdStart) {
		t.Fatalf("cold start ordering wrong: %v %v %v", sw.ColdStart, vt.ColdStart, vb.ColdStart)
	}
	if vt.Area != 2*sw.Area {
		t.Fatalf("Vtop area %v != 2x switch %v", vt.Area, sw.Area)
	}
	if tbl := MechanismTable(rows); len(tbl.Rows) != 3 {
		t.Fatal("mechanism table rows")
	}
}

func TestCharacterization(t *testing.T) {
	tbl := Characterization()
	if len(tbl.Rows) < 5 {
		t.Fatalf("characterization rows = %d", len(tbl.Rows))
	}
}

func TestCapySatStudy(t *testing.T) {
	s := CapySat(1)
	if !s.Feasibility.FeasibleBoosted || s.Feasibility.FeasibleRaw {
		t.Fatalf("feasibility wrong: %+v", s.Feasibility)
	}
	if s.Splitter*5 != s.Switches {
		t.Fatalf("area ratio wrong: %v vs %v", s.Splitter, s.Switches)
	}
	if s.Mission.Packets == 0 {
		t.Fatal("no packets")
	}
	if tbl := s.Table(); len(tbl.Rows) < 8 {
		t.Fatal("capysat table too small")
	}
}

func TestAblateBypass(t *testing.T) {
	a := AblateBypass()
	if a.Speedup < 10 {
		t.Fatalf("bypass speedup = %.1fx, want ≥ 10x (the paper's order of magnitude)", a.Speedup)
	}
	if len(a.Table().Rows) != 3 {
		t.Fatal("bypass table rows")
	}
}

func TestAblateSwitchDefault(t *testing.T) {
	rows := AblateSwitchDefault()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	no, nc := rows[0], rows[1]
	// NO recovers fast on the small default but cannot run the big
	// task; NC recovers slowly at maximum capacity but can.
	if no.FirstAttemptOK {
		t.Error("NO default should not satisfy the big task")
	}
	if !nc.FirstAttemptOK {
		t.Error("NC default should satisfy the big task")
	}
	if no.RecoveryCharge >= nc.RecoveryCharge {
		t.Errorf("NO recovery (%v) should be faster than NC (%v)", no.RecoveryCharge, nc.RecoveryCharge)
	}
	if no.ImplicitCapacity >= nc.ImplicitCapacity {
		t.Error("NO implicit capacity should be smaller")
	}
	if len(SwitchDefaultTable(rows).Rows) != 2 {
		t.Fatal("switch table rows")
	}
}

func TestAblateESRMonotone(t *testing.T) {
	rows := AblateESR()
	sawStranded := false
	for i := 1; i < len(rows); i++ {
		if rows[i].Extractable > rows[i-1].Extractable {
			t.Fatalf("extractable energy increased with ESR at %v", rows[i].ESR)
		}
		if rows[i-1].Extractable > 0 && rows[i].Extractable >= rows[i-1].Extractable {
			t.Fatalf("extractable energy not strictly decreasing at %v", rows[i].ESR)
		}
		if rows[i].Cutoff <= rows[i-1].Cutoff {
			t.Fatalf("cutoff not increasing with ESR at %v", rows[i].ESR)
		}
	}
	// At CPH3225A-scale ESR the entire bank is stranded for this load —
	// the §2.2.2 "useless without voltage boosting" regime.
	for _, r := range rows {
		if r.ESR == 160 && r.Extractable == 0 {
			sawStranded = true
		}
	}
	if !sawStranded {
		t.Fatal("160 Ω row should strand all energy under a 30 mW load")
	}
	if len(ESRTable(rows).Rows) != len(rows) {
		t.Fatal("ESR table rows")
	}
}

func TestAblateDeficitMonotone(t *testing.T) {
	rows := AblateDeficit()
	if rows[0].LossVsTop != 0 {
		t.Fatalf("zero deficit should lose nothing: %g", rows[0].LossVsTop)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].BurstBand >= rows[i-1].BurstBand {
			t.Fatalf("burst band not decreasing with deficit at %v", rows[i].Deficit)
		}
	}
	// The paper's 0.3 V deficit costs a meaningful share of the band.
	for _, r := range rows {
		if r.Deficit == 0.3 && (r.LossVsTop < 0.1 || r.LossVsTop > 0.9) {
			t.Fatalf("0.3 V deficit loss = %.0f%%, implausible", 100*r.LossVsTop)
		}
	}
	if len(DeficitTable(rows).Rows) != len(rows) {
		t.Fatal("deficit table rows")
	}
}

func TestFederatedComparison(t *testing.T) {
	r := Federated()
	if r.MaxAtomicGanged <= r.MaxAtomicFederated {
		t.Fatalf("ganged ceiling (%v) should exceed federated (%v)",
			r.MaxAtomicGanged, r.MaxAtomicFederated)
	}
	if r.FeasibleFederated || !r.FeasibleGanged {
		t.Fatalf("data-dump feasibility wrong: fed=%v ganged=%v",
			r.FeasibleFederated, r.FeasibleGanged)
	}
	if r.BurstPacketsGanged <= r.BurstPacketsFederated {
		t.Fatalf("ganged burst (%d) should exceed federated (%d)",
			r.BurstPacketsGanged, r.BurstPacketsFederated)
	}
	if r.BurstPacketsFederated == 0 {
		t.Fatal("federation should still send some packets")
	}
	if len(r.Table().Rows) != 4 {
		t.Fatal("federated table rows")
	}
}

func TestCheckpointingComparison(t *testing.T) {
	r, err := Checkpointing()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Checkpoint.Done || !r.FineTasks.Done || !r.CoarseTask.Done {
		t.Fatalf("not all runtimes finished: %+v", r)
	}
	// Checkpointing avoids re-execution; coarse tasks waste the most.
	if r.Checkpoint.ReexecutedOps > r.CoarseTask.ReexecutedOps {
		t.Fatal("checkpointing wasted more than coarse task restart")
	}
	if r.FineTasks.ReexecutedOps > r.CoarseTask.ReexecutedOps {
		t.Fatal("fine tasks wasted more than coarse tasks")
	}
	if len(r.Table().Rows) != 3 {
		t.Fatal("checkpoint table rows")
	}
}

func TestAblateSleep(t *testing.T) {
	rows := AblateSleep()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Longer sleeps take fewer samples…
	for i := 1; i < len(rows); i++ {
		if rows[i].Samples >= rows[i-1].Samples {
			t.Fatalf("samples not decreasing with sleep: %d then %d",
				rows[i-1].Samples, rows[i].Samples)
		}
	}
	// …but the long recharge gap never goes away: §6.4's point. Every
	// configuration still shows a multi-second maximum gap dominated by
	// the fixed bank's charge time.
	for _, r := range rows {
		if r.MaxGap < 10 {
			t.Fatalf("sleep %v: max gap %v — sleeping should not remove the recharge gap",
				r.Sleep, r.MaxGap)
		}
	}
	if len(SleepTable(rows).Rows) != 4 {
		t.Fatal("sleep table rows")
	}
}

// TestGoldenHeadlines pins the full-scale evaluation's headline numbers
// at the default seed. Every number here is deterministic; a change
// means the model changed and EXPERIMENTS.md needs regenerating.
func TestGoldenHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is several seconds; skipped with -short")
	}
	m, err := RunMatrixParallel(context.Background(), DefaultSeed, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	correct := func(app string, v core.Variant) int {
		return m.Runs[app][v].Accuracy().Correct
	}
	golden := []struct {
		app  string
		v    core.Variant
		want int
	}{
		{"TempAlarm", core.Continuous, 50},
		{"TempAlarm", core.Fixed, 28},
		{"TempAlarm", core.CapyR, 48},
		{"TempAlarm", core.CapyP, 48},
		{"GestureFast", core.Continuous, 72},
		{"GestureFast", core.Fixed, 16},
		{"GestureFast", core.CapyR, 1},
		{"GestureFast", core.CapyP, 49},
		{"GestureCompact", core.Fixed, 20},
		{"GestureCompact", core.CapyR, 0},
		{"GestureCompact", core.CapyP, 36},
		{"CorrSense", core.Continuous, 80},
		{"CorrSense", core.Fixed, 34},
		{"CorrSense", core.CapyR, 71},
		{"CorrSense", core.CapyP, 72},
	}
	for _, g := range golden {
		if got := correct(g.app, g.v); got != g.want {
			t.Errorf("%s/%v correct = %d, want %d", g.app, g.v, got, g.want)
		}
	}
	// The headline latency relation: Capy-R pays the TA charge on the
	// critical path, Capy-P does not.
	ta := m.Runs["TempAlarm"]
	if r, p := ta[core.CapyR].Latency().Median, ta[core.CapyP].Latency().Median; r < 10*p {
		t.Errorf("TA latency relation broken: Capy-R %v vs Capy-P %v", r, p)
	}
}

func TestMultiSeedStats(t *testing.T) {
	rows, err := MultiSeedParallel(context.Background(), "TempAlarm",
		[]core.Variant{core.Fixed, core.CapyP}, DefaultSeeds(3), 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byVariant := map[core.Variant]SeedStats{}
	for _, r := range rows {
		if r.Seeds != 3 {
			t.Fatalf("seeds = %d", r.Seeds)
		}
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Fatalf("ordering violated: %+v", r)
		}
		byVariant[r.Variant] = r
	}
	// The headline conclusion survives every seed: even Capy-P's worst
	// draw beats Fixed's best.
	if byVariant[core.CapyP].Min <= byVariant[core.Fixed].Max {
		t.Fatalf("conclusion not robust: CapyP min %.2f vs Fixed max %.2f",
			byVariant[core.CapyP].Min, byVariant[core.Fixed].Max)
	}
	if len(MultiSeedTable(rows).Rows) != 2 {
		t.Fatal("table rows")
	}
	if _, err := MultiSeedParallel(context.Background(), "nope", nil, DefaultSeeds(1), 1, 0); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := MultiSeedParallel(context.Background(), "TempAlarm", nil, DefaultSeeds(1), 0, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestClassifyFig3Regions(t *testing.T) {
	points := figure3(t)
	// The paper's dashed-line example: a ~1.5 Mops requirement makes
	// small capacitors infeasible (Design A) and large ones
	// non-reactive (Design B).
	regions := ClassifyFig3(points, 1.5)
	if len(regions) != len(points) {
		t.Fatalf("regions = %d", len(regions))
	}
	var sawInfeasible, sawOptimal, sawNotReactive bool
	for _, p := range points {
		switch regions[p.C] {
		case RegionInfeasible:
			sawInfeasible = true
			if p.Mops >= 1.5 {
				t.Fatalf("point %v misclassified infeasible at %g Mops", p.C, p.Mops)
			}
		case RegionOptimal:
			sawOptimal = true
		case RegionNotReactive:
			sawNotReactive = true
			if p.Mops <= 1.5 {
				t.Fatalf("point %v misclassified not-reactive at %g Mops", p.C, p.Mops)
			}
		}
	}
	if !sawInfeasible || !sawOptimal || !sawNotReactive {
		t.Fatalf("regions missing: %v %v %v", sawInfeasible, sawOptimal, sawNotReactive)
	}
	for _, r := range []Fig3Region{RegionInfeasible, RegionOptimal, RegionNotReactive} {
		if r.String() == "" {
			t.Error("empty region name")
		}
	}
}
