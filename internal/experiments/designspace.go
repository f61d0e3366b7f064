package experiments

import (
	"context"
	"fmt"
	"math"

	"capybara/internal/core"
	"capybara/internal/device"
	"capybara/internal/harvest"
	"capybara/internal/metrics"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/runner"
	"capybara/internal/sim"
	"capybara/internal/storage"
	"capybara/internal/task"
	"capybara/internal/units"
)

// Figure 2 — execution with a fixed-capacity energy buffer. The
// application collects a time series of 15 sensor samples and transmits
// them by radio. With low capacity the samples are reactive but the
// packet never completes; with high capacity the packet completes but
// sampling is bursty with long recharges.

// Fig2Result holds both devices' trajectories and outcomes.
type Fig2Result struct {
	LowTrace, HighTrace     *sim.Trace
	LowSamples, HighSamples []units.Seconds
	LowPackets, HighPackets int
	Horizon                 units.Seconds
}

// Figure2 runs the fixed-capacity comparison.
func Figure2() (*Fig2Result, error) {
	const horizon units.Seconds = 300
	res := &Fig2Result{Horizon: horizon}

	run := func(bank *storage.Bank, trace *sim.Trace) ([]units.Seconds, int, error) {
		tmp := device.TMP36()
		radio := device.CC2650()
		var samples []units.Seconds
		packets := 0
		prog := task.MustProgram("sample",
			&task.Task{Name: "sample", Run: func(c *task.Ctx) task.Next {
				at := c.Sample(tmp)
				samples = append(samples, at)
				n := c.WordOr("n", 0) + 1
				c.SetWord("n", n)
				if n >= 15 {
					c.SetWord("n", 0)
					return "send"
				}
				c.Sleep(0.1)
				return "sample"
			}},
			&task.Task{Name: "send", Run: func(c *task.Ctx) task.Next {
				c.Transmit(radio, 25)
				packets++
				return "sample"
			}},
		)
		inst, err := core.New(core.Config{
			Variant:    core.Fixed,
			Source:     harvest.RegulatedSupply{Max: 0.5 * units.MilliWatt, V: 3.0},
			MCU:        device.MSP430FR5969(),
			Base:       bank,
			SwitchKind: reservoir.NormallyOpen,
			Trace:      trace,
		}, prog)
		if err != nil {
			return nil, 0, err
		}
		return samples, packets, inst.Run(horizon)
	}

	res.LowTrace = &sim.Trace{MinInterval: 0.05}
	low := storage.MustBank("low",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad))
	var err error
	res.LowSamples, res.LowPackets, err = run(low, res.LowTrace)
	if err != nil {
		return nil, err
	}

	res.HighTrace = &sim.Trace{MinInterval: 0.05}
	high := storage.MustBank("high",
		storage.GroupFor(storage.CeramicX5R, 400*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 330*units.MicroFarad),
		storage.GroupOf(storage.EDLC, 2))
	res.HighSamples, res.HighPackets, err = run(high, res.HighTrace)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders Figure 2's outcome summary.
func (r *Fig2Result) Table() *Table {
	gap := func(samples []units.Seconds) string {
		s := metrics.Summarize(diffs(samples))
		if s.Count == 0 {
			return "n/a"
		}
		return s.Max.String()
	}
	return &Table{
		Title:  "Figure 2 — execution with a fixed-capacity energy buffer",
		Header: []string{"capacity", "samples", "complete packets", "longest sampling gap"},
		Rows: [][]string{
			{"low (730 µF)", fmt.Sprint(len(r.LowSamples)), fmt.Sprint(r.LowPackets), gap(r.LowSamples)},
			{"high (+15 mF)", fmt.Sprint(len(r.HighSamples)), fmt.Sprint(r.HighPackets), gap(r.HighSamples)},
		},
	}
}

func diffs(xs []units.Seconds) []units.Seconds {
	if len(xs) < 2 {
		return nil
	}
	out := make([]units.Seconds, 0, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		out = append(out, xs[i]-xs[i-1])
	}
	return out
}

// Figure 3 — design space for energy buffer capacity: the longest span
// of ALU operations (atomicity, in Mops) executable without a power
// failure, as a function of capacitance.

// Fig3Point is one capacitance sample of the design-space curve.
type Fig3Point struct {
	C     units.Capacitance
	Mops  float64
	OnFor units.Seconds
}

// Figure3Parallel sweeps capacitance logarithmically from 50 µF to
// 20 mF, as in the paper's 10²–10⁴ µF axis, with one job per sample
// point across jobs workers (<= 0 means every CPU, 1 forces the serial
// path). Each job builds its own power system, MCU model, and bank, so
// nothing is shared between goroutines and the curve is identical at
// any worker count.
func Figure3Parallel(ctx context.Context, jobs int) ([]Fig3Point, error) {
	var caps []units.Capacitance
	for exp := 0.0; exp <= 1.0001; exp += 1.0 / 24 {
		caps = append(caps, units.Capacitance(50e-6*math.Pow(20e-3/50e-6, exp)))
	}
	return runner.Map(ctx, jobs, len(caps), func(ctx context.Context, i int) (Fig3Point, error) {
		sys := power.NewSystem(harvest.RegulatedSupply{Max: 10 * units.MilliWatt, V: 3.0})
		mcu := device.MSP430FR5969()
		c := caps[i]
		// A low-ESR bank of exactly this capacitance.
		tech := storage.Technology{
			Name: "sweep", UnitCap: c, UnitVolume: 1, UnitESR: 0.05, RatedVoltage: 3.6,
		}
		b := storage.MustBank("sweep", storage.GroupOf(tech, 1))
		b.SetVoltage(core.DefaultVTop)
		on := sys.OperatingTime(b, mcu.ActivePower)
		return Fig3Point{
			C:     c,
			Mops:  float64(on) * mcu.OpsPerSecond / 1e6,
			OnFor: on,
		}, nil
	})
}

// Fig3Region classifies a design point against an atomicity
// requirement, reproducing Fig. 3's annotated regions: left of the
// curve the task is infeasible; on it, optimal; right of it, the
// buffer (and its charge time) are larger than needed, so the task is
// not reactive.
type Fig3Region int

const (
	// RegionInfeasible: capacity below the task's atomicity need.
	RegionInfeasible Fig3Region = iota
	// RegionOptimal: capacity within a small margin of the need.
	RegionOptimal
	// RegionNotReactive: over-provisioned; recharge time wasted.
	RegionNotReactive
)

func (r Fig3Region) String() string {
	switch r {
	case RegionInfeasible:
		return "infeasible"
	case RegionOptimal:
		return "optimal"
	default:
		return "not reactive"
	}
}

// ClassifyFig3 labels each sweep point against a required atomicity in
// Mops (the paper's dashed line). Points within ±25 % of the
// requirement count as optimal.
func ClassifyFig3(points []Fig3Point, requiredMops float64) map[units.Capacitance]Fig3Region {
	out := make(map[units.Capacitance]Fig3Region, len(points))
	for _, p := range points {
		switch {
		case p.Mops < requiredMops*0.75:
			out[p.C] = RegionInfeasible
		case p.Mops <= requiredMops*1.25:
			out[p.C] = RegionOptimal
		default:
			out[p.C] = RegionNotReactive
		}
	}
	return out
}

// fig3RequiredMops is the atomicity requirement of Fig. 3's dashed
// line, about 1.5 Mops.
const fig3RequiredMops = 1.5

// Fig3Table renders the Figure 3 sweep, with each point's region
// against the dashed-line requirement.
func Fig3Table(points []Fig3Point) *Table {
	t := &Table{
		Title:  "Figure 3 — atomicity vs energy buffer capacitance",
		Header: []string{"capacitance", "operating time", "atomicity (Mops)", fmt.Sprintf("region at %g Mops", fig3RequiredMops)},
	}
	regions := ClassifyFig3(points, fig3RequiredMops)
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.C.String(), p.OnFor.String(), fmt.Sprintf("%.3f", p.Mops), regions[p.C].String(),
		})
	}
	return t
}

// Figure 4 — design space for provisioning atomicity by capacitor
// volume and technology. Ceramics are low-density; the CPH3225A
// supercap is dense but its high ESR strands energy, so atomicity sees
// a diminishing increase with volume.

// Fig4Point is one (technology, volume) sample.
type Fig4Point struct {
	Tech   string
	Units  int
	Volume units.Volume
	Mops   float64
}

// Figure4Parallel sweeps unit counts of each technology up to 35 mm³,
// with one job per
// (technology, unit count) point across jobs workers (<= 0 means every
// CPU, 1 forces the serial path). The cheap volume enumeration stays
// serial; only the operating-time evaluation fans out, with each job
// building its own power system and bank.
func Figure4Parallel(ctx context.Context, jobs int) ([]Fig4Point, error) {
	const maxVolume units.Volume = 35
	type sample struct {
		tech  storage.Technology
		units int
	}
	var samples []sample
	for _, tech := range []storage.Technology{storage.CeramicX5R, storage.SupercapCPH3225A} {
		for n := 1; storage.GroupOf(tech, n).Volume() <= maxVolume; n++ {
			samples = append(samples, sample{tech: tech, units: n})
		}
	}
	return runner.Map(ctx, jobs, len(samples), func(ctx context.Context, i int) (Fig4Point, error) {
		sys := power.NewSystem(harvest.RegulatedSupply{Max: 10 * units.MilliWatt, V: 3.0})
		mcu := device.MSP430FR5969()
		s := samples[i]
		g := storage.GroupOf(s.tech, s.units)
		b := storage.MustBank("sweep", g)
		b.SetVoltage(b.RatedVoltage())
		on := sys.OperatingTime(b, mcu.ActivePower)
		return Fig4Point{
			Tech:   s.tech.Name,
			Units:  s.units,
			Volume: g.Volume(),
			Mops:   float64(on) * mcu.OpsPerSecond / 1e6,
		}, nil
	})
}

// Fig4Table renders the Figure 4 sweep.
func Fig4Table(points []Fig4Point) *Table {
	t := &Table{
		Title:  "Figure 4 — atomicity vs capacitor volume by technology",
		Header: []string{"technology", "units", "volume", "atomicity (Mops)"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			p.Tech, fmt.Sprint(p.Units), p.Volume.String(), fmt.Sprintf("%.3f", p.Mops),
		})
	}
	return t
}
