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

// csrDistanceSamples is the number of back-to-back proximity samples
// CSR collects per magnetic event (§6.1.3: "collect 32 distance
// samples").
const csrDistanceSamples = 32

// NewCSR builds the correlated sensing and report application
// (§6.1.3): the sample task polls the magnetometer for the magnet on
// the pendulum; on a field event the report task collects 32 distance
// samples with the proximity sensor, lights the LED for 250 ms, and
// sends an 8-byte BLE packet — all in one atomic burst.
func NewCSR(variant core.Variant, sched env.Schedule, trace *sim.Trace, scr *Scratch) (*Run, error) {
	rec := scratchRecorder(scr)
	mag := device.Magnetometer()
	prox := device.ProximitySensor()
	led := device.LED()
	radio := device.CC2650()

	// CSR is written in the Chain channel style: the detected event
	// crosses the task boundary in the sample→report channel, report
	// acknowledges through the report→sample channel, and report
	// deduplicates retries through its self-channel.
	sample := &task.Task{
		Name:          "sample",
		PreburstBurst: modeBig,
		PreburstExec:  modeSmall,
		Run: func(c *task.Ctx) task.Next {
			at := c.Sample(mag)
			rec.RecordSample(at)
			c.Compute(4000) // field-change detection
			if ev, ok := sched.ActiveAt(at); ok && c.ChanInOr(0, "last", "report") != uint64(ev.Index)+1 {
				c.ChanOut("report", "pending", uint64(ev.Index)+1)
				c.ChanOutFloat("report", "at", float64(ev.At))
				return "report"
			}
			// "The magnetometer must maintain a consistent sampling
			// frequency to capture field changes over time" (§6.1.3).
			c.Sleep(0.02)
			return "sample"
		},
	}

	report := &task.Task{
		Name:  "report",
		Burst: modeBig,
		Run: func(c *task.Ctx) task.Next {
			idx := c.ChanInOr(0, "pending", "sample")
			done, _ := c.Self("done")
			if idx == 0 || idx == done {
				return "sample"
			}
			times := c.SampleBurst(prox, csrDistanceSamples)
			for range times {
				c.Compute(500) // distance conversion per sample
			}
			c.Sample(led) // 250 ms indicator flash
			c.Transmit(radio, 8)
			rec.RecordReport(metrics.Report{
				EventIndex: int(idx) - 1,
				EventAt:    units.Seconds(c.ChanInFloat(0, "at", "sample")),
				ReportedAt: c.Now(),
				Outcome:    metrics.Correct,
			})
			c.SelfOut("done", idx)
			c.ChanOut("sample", "last", idx)
			return "sample"
		},
	}

	cfg := buildConfig(variant, grcSupply(), csrFixedBank(), csrSmallBank(), csrBigBank(), trace)
	prog := task.MustProgram("sample", sample, report)
	inst, err := core.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &Run{
		Name:     "CorrSense",
		Variant:  variant,
		Schedule: sched,
		Horizon:  sched.Horizon() + 30,
		Rec:      rec,
		Inst:     inst,
	}, nil
}
