package apps

import (
	"capybara/internal/core"
	"capybara/internal/device"
	"capybara/internal/env"
	"capybara/internal/metrics"
	"capybara/internal/sim"
	"capybara/internal/task"
	"capybara/internal/units"
)

// taSeriesLen is the length of the temperature time series the alarm
// packet carries (the paper's application collects "a time series of
// the samples" and transmits "the most recent time series").
const taSeriesLen = 15

// NewTA builds the temperature monitor with alarm (§6.1.2).
//
// The sample task reads the TMP36 on the small bank and appends to a
// bounded time series; when a reading leaves the configured range it
// hands off to the alarm task, which transmits a 25-byte BLE packet
// containing the series. Under Capy-P the alarm's bank is pre-charged
// by the sample task's preburst annotation.
func NewTA(variant core.Variant, sched env.Schedule, trace *sim.Trace, scr *Scratch) (*Run, error) {
	plant := env.NewThermal(sched)
	rec := scratchRecorder(scr)
	tmp := device.TMP36()
	radio := device.CC2650()

	sample := &task.Task{
		Name:          "sample",
		PreburstBurst: modeBig,
		PreburstExec:  modeSmall,
		Run: func(c *task.Ctx) task.Next {
			at := c.Sample(tmp)
			rec.RecordSample(at)
			reading := plant.Temperature(at)
			series := append(c.FloatSeries("series"), reading)
			if len(series) > taSeriesLen {
				series = series[len(series)-taSeriesLen:]
			}
			c.SetFloats("series", series)
			c.Compute(2000) // range check + series bookkeeping
			if plant.OutOfRange(reading) {
				if ev, ok := sched.ActiveAt(at); ok && c.WordOr("alarm.last", 0) != uint64(ev.Index)+1 {
					c.SetWord("alarm.pending", uint64(ev.Index)+1)
					c.SetFloat("alarm.at", float64(ev.At))
					return "alarm"
				}
			}
			// Pace the sampling loop; the power system's quiescent draw
			// keeps discharging the buffer during the sleep (§6.4).
			c.Sleep(0.08)
			return "sample"
		},
	}

	alarm := &task.Task{
		Name:  "alarm",
		Burst: modeBig,
		Run: func(c *task.Ctx) task.Next {
			idx := c.WordOr("alarm.pending", 0)
			if idx == 0 {
				return "sample"
			}
			// BLE advertising broadcasts the alarm on all three
			// advertising channels.
			for ch := 0; ch < 3; ch++ {
				c.Transmit(radio, 25)
			}
			rec.RecordReport(metrics.Report{
				EventIndex: int(idx) - 1,
				EventAt:    units.Seconds(c.FloatOr("alarm.at", 0)),
				ReportedAt: c.Now(),
				Outcome:    metrics.Correct,
			})
			c.SetWord("alarm.last", idx)
			c.SetWord("alarm.pending", 0)
			return "sample"
		},
	}

	cfg := buildConfig(variant, taSupply(), taFixedBank(), taSmallBank(), taBigBank(), trace)
	prog := task.MustProgram("sample", sample, alarm)
	inst, err := core.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &Run{
		Name:     "TempAlarm",
		Variant:  variant,
		Schedule: sched,
		Horizon:  sched.Horizon() + 60,
		Rec:      rec,
		Inst:     inst,
	}, nil
}
