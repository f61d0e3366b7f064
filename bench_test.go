package capybara

// Benchmarks regenerating every figure and table of the paper's
// evaluation (one benchmark per artifact; see DESIGN.md's
// per-experiment index). The interesting output is the custom metrics:
// each benchmark reports the headline quantity of its figure so that
// `go test -bench=.` doubles as a reproduction run. The rendered tables
// come from cmd/capybench.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"capybara/internal/apps"
	"capybara/internal/core"
	"capybara/internal/env"
	"capybara/internal/experiments"
	"capybara/internal/fleet"
	"capybara/internal/fleetsvc"
	"capybara/internal/runner"
)

// BenchmarkFigure2 regenerates the fixed-capacity trade-off traces.
func BenchmarkFigure2(b *testing.B) {
	var packets int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		packets = r.HighPackets
	}
	b.ReportMetric(float64(packets), "high-cap-packets")
}

// BenchmarkFigure3 regenerates the atomicity-vs-capacitance sweep.
func BenchmarkFigure3(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure3Parallel(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		last = points[len(points)-1].Mops
	}
	b.ReportMetric(last, "Mops@20mF")
}

// BenchmarkFigure4 regenerates the atomicity-vs-volume sweep.
func BenchmarkFigure4(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure4Parallel(context.Background(), 0)
		if err != nil {
			b.Fatal(err)
		}
		n = len(points)
	}
	b.ReportMetric(float64(n), "sweep-points")
}

func matrix(b *testing.B) *experiments.Matrix {
	b.Helper()
	m, err := experiments.RunMatrixParallel(context.Background(), experiments.DefaultSeed, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFigure8 regenerates the event-detection-accuracy grid. The
// reported metrics are the headline comparison: Capy-P vs Fixed
// accuracy averaged over the four applications.
func BenchmarkFigure8(b *testing.B) {
	var capy, fixed float64
	for i := 0; i < b.N; i++ {
		m := matrix(b)
		capy, fixed = 0, 0
		n := 0.0
		for _, byVariant := range m.Runs {
			capy += byVariant[core.CapyP].Accuracy().FractionCorrect()
			fixed += byVariant[core.Fixed].Accuracy().FractionCorrect()
			n++
		}
		capy /= n
		fixed /= n
	}
	b.ReportMetric(capy, "capyP-accuracy")
	b.ReportMetric(fixed, "fixed-accuracy")
	b.ReportMetric(capy/fixed, "improvement-x")
}

// BenchmarkMatrixParallel measures the sweep engine on the full
// Fig. 8/9/11 run matrix at 1, 2, and GOMAXPROCS workers; the
// jobs=1/jobs=N time ratio is the parallel speedup. The tables are
// byte-identical at every worker count (see the determinism golden
// tests), so the worker count is purely a wall-clock knob.
func BenchmarkMatrixParallel(b *testing.B) {
	for _, jobs := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := experiments.RunMatrixParallel(context.Background(),
					experiments.DefaultSeed, 1.0, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if len(m.Runs) == 0 {
					b.Fatal("empty matrix")
				}
			}
		})
	}
}

// BenchmarkFigure9 regenerates the report-latency grid; the metric is
// the TempAlarm critical-path cost of Capy-R vs Capy-P.
func BenchmarkFigure9(b *testing.B) {
	var r, p float64
	for i := 0; i < b.N; i++ {
		m := matrix(b)
		ta := m.Runs["TempAlarm"]
		r = float64(ta[core.CapyR].Latency().Median)
		p = float64(ta[core.CapyP].Latency().Median)
	}
	b.ReportMetric(r, "capyR-median-s")
	b.ReportMetric(p, "capyP-median-s")
}

// BenchmarkFigure10TempAlarm regenerates the TA inter-arrival
// sensitivity sweep.
func BenchmarkFigure10TempAlarm(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure10Ctx(context.Background(), experiments.TASensitivity())
		if err != nil {
			b.Fatal(err)
		}
		pts = len(points)
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFigure10Gesture regenerates the GRC inter-arrival
// sensitivity sweep.
func BenchmarkFigure10Gesture(b *testing.B) {
	var pts int
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure10Ctx(context.Background(), experiments.GRCSensitivity())
		if err != nil {
			b.Fatal(err)
		}
		pts = len(points)
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFigure11 regenerates the inter-sample distribution analysis.
func BenchmarkFigure11(b *testing.B) {
	var fixedGaps int
	for i := 0; i < b.N; i++ {
		m := matrix(b)
		fixedGaps = len(m.Runs["TempAlarm"][core.Fixed].Gaps())
	}
	b.ReportMetric(float64(fixedGaps), "fixed-gaps")
}

// BenchmarkMechanisms regenerates the §5.2 mechanism comparison.
func BenchmarkMechanisms(b *testing.B) {
	var coldStart float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Mechanisms()
		coldStart = float64(rows[0].ColdStart)
	}
	b.ReportMetric(coldStart, "switchedC-coldstart-s")
}

// BenchmarkCharacterization regenerates the §6.5 hardware table.
func BenchmarkCharacterization(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Characterization().Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkCapySat regenerates the §6.6 case study (two orbits).
func BenchmarkCapySat(b *testing.B) {
	var packets int
	for i := 0; i < b.N; i++ {
		s := experiments.CapySat(2)
		packets = s.Mission.Packets
	}
	b.ReportMetric(float64(packets), "packets")
}

// BenchmarkAblationBypass measures the bypass diode's charge-time win.
func BenchmarkAblationBypass(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = experiments.AblateBypass().Speedup
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkAblationSwitchDefault measures NO vs NC recovery.
func BenchmarkAblationSwitchDefault(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.AblateSwitchDefault())
	}
	b.ReportMetric(float64(rows), "variants")
}

// BenchmarkAblationESR measures the ESR-stranding sweep.
func BenchmarkAblationESR(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(experiments.AblateESR())
	}
	b.ReportMetric(float64(rows), "points")
}

// BenchmarkAblationDeficit measures the pre-charge deficit sweep.
func BenchmarkAblationDeficit(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblateDeficit()
		for _, r := range rows {
			if r.Deficit == 0.3 {
				loss = r.LossVsTop
			}
		}
	}
	b.ReportMetric(loss, "loss@0.3V")
}

// BenchmarkRelatedFederated compares UFoP-style federation against
// reconfigurable banks (§7).
func BenchmarkRelatedFederated(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Federated()
		ratio = float64(r.MaxAtomicGanged) / float64(r.MaxAtomicFederated)
	}
	b.ReportMetric(ratio, "ganged-vs-federated-x")
}

// BenchmarkRelatedCheckpointing compares the checkpointing discipline
// against task restart (§7).
func BenchmarkRelatedCheckpointing(b *testing.B) {
	var wasted float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Checkpointing()
		if err != nil {
			b.Fatal(err)
		}
		wasted = r.CoarseTask.ReexecutedOps / 1e6
	}
	b.ReportMetric(wasted, "coarse-waste-Mops")
}

// BenchmarkAblationSleep measures the sleep-between-samples ablation.
func BenchmarkAblationSleep(b *testing.B) {
	var maxGap float64
	for i := 0; i < b.N; i++ {
		rows := experiments.AblateSleep()
		maxGap = float64(rows[len(rows)-1].MaxGap)
	}
	b.ReportMetric(maxGap, "max-gap-s")
}

// fleetBenchConfig is the shared workload of the fleet benchmarks: 10k
// devices across the full 48-cohort grid at 5% event scale — large
// enough that per-device construction and retention would dominate a
// naive loop, small enough for bench-short CI.
func fleetBenchConfig() fleet.Config {
	return fleet.Config{N: 10_000, Seed: 1, Scale: 0.05}
}

// BenchmarkFleet measures fleet-engine throughput at -jobs=GOMAXPROCS:
// recycled scratch, streaming aggregation and the lean device step.
// devices/sec is the headline; devices are independent, so it scales
// with cores.
func BenchmarkFleet(b *testing.B) {
	var res *fleet.Result
	for i := 0; i < b.N; i++ {
		r, err := fleet.Run(context.Background(), fleetBenchConfig())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(res.DevicesSec, "devices/sec")
}

// BenchmarkFleetRemote runs the BenchmarkFleet workload through the
// distributed path: an in-process daemon that computes nothing itself
// (Jobs 0) on a temp store, and two remote workers (fleetsvc.Work, each
// at GOMAXPROCS) leasing its chunks over loopback HTTP. devices/sec
// runs from submit to done. The report is byte-identical to
// BenchmarkFleet's; the gap to BenchmarkFleet is the path's whole
// overhead: lease round trips, the store entry each chunk travels as,
// its checkpoint, and the final fold.
func BenchmarkFleetRemote(b *testing.B) {
	cfg := fleetBenchConfig()
	spec := fleet.Spec{N: cfg.N, Seed: cfg.Seed, Scale: cfg.Scale, ChunkSize: cfg.ChunkSize}
	var devicesSec float64
	for i := 0; i < b.N; i++ {
		store, err := fleetsvc.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		svc, err := fleetsvc.NewService(fleetsvc.ServiceConfig{Store: store, Jobs: 0})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		ctx, stop := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		workerErrs := make([]error, 2)
		for w := range workerErrs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				workerErrs[w] = fleetsvc.Work(ctx, srv.URL, runtime.GOMAXPROCS(0))
			}(w)
		}
		start := time.Now()
		st, err := svc.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		changed, unwatch, _ := svc.Watch(st.ID)
		for st, _ = svc.Status(st.ID); st.State != fleetsvc.StateDone; st, _ = svc.Status(st.ID) {
			if st.State == fleetsvc.StateFailed || st.State == fleetsvc.StateCanceled {
				b.Fatalf("job %s: %s", st.State, st.Error)
			}
			<-changed
		}
		devicesSec = float64(spec.N) / time.Since(start).Seconds()
		unwatch()
		stop()
		wg.Wait()
		srv.Close()
		svc.Close()
		for w, err := range workerErrs {
			if err != nil {
				b.Fatalf("worker %d: %v", w, err)
			}
		}
	}
	b.ReportMetric(devicesSec, "devices/sec")
}

// BenchmarkMultiSeed aggregates Fig. 8 accuracy across 3 independent
// event sequences.
func BenchmarkMultiSeed(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MultiSeedParallel(context.Background(), "TempAlarm",
			[]core.Variant{core.Fixed, core.CapyP}, experiments.DefaultSeeds(3), 1.0, 0)
		if err != nil {
			b.Fatal(err)
		}
		spread = rows[1].Min - rows[0].Max
	}
	b.ReportMetric(spread, "capyP-min-minus-fixed-max")
}

// BenchmarkTaskAttempt measures the device-step hot path: the cost of
// one task attempt (engine dispatch, power-manager prepare, the task
// body's drains, commit). One op is one scale-1.0 lifecycle of one
// device, built on recycled scratch; only Execute is timed. ns/attempt
// and allocs/attempt divide that lifecycle's time and heap allocations
// by its task attempts (successes plus power failures, over all tasks;
// the named self-looping task makes up nearly all of them).
func BenchmarkTaskAttempt(b *testing.B) {
	for _, bc := range []struct {
		name, app string
		variant   core.Variant
	}{
		{"GRC-sense/Cont", "GestureFast", core.Continuous},
		{"GRC-sense/Fixed", "GestureFast", core.Fixed},
		{"GRC-sense/Capy-R", "GestureFast", core.CapyR},
		{"TA-sample/Cont", "TempAlarm", core.Continuous},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec, err := apps.SpecByName(bc.app)
			if err != nil {
				b.Fatal(err)
			}
			sched := env.Poisson(runner.RNG(1, 0), spec.Events, spec.Mean, spec.Window)
			var scr apps.Scratch
			var attempts, mallocs uint64
			var ms runtime.MemStats
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				scr.Reset()
				run, err := spec.Build(bc.variant, sched, nil, &scr)
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				err = run.Execute()
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				if err != nil {
					b.Fatal(err)
				}
				mallocs += ms.Mallocs - before
				for _, p := range run.Inst.Engine.Profile {
					attempts += uint64(p.Runs + p.Failures)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
			b.ReportMetric(float64(mallocs)/float64(attempts), "allocs/attempt")
			b.ReportMetric(float64(attempts)/float64(b.N), "attempts/lifecycle")
		})
	}
}
