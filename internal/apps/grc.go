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

// NewGRC builds the wireless gesture-activated remote control (§6.1.1).
//
// Tasks: sense samples the phototransistor looking for an object above
// the board; on proximity the gesture task activates the APDS-9960 for
// the 250 ms minimum gesture window, decodes the swing direction, and
// broadcasts it in an 8-byte BLE packet.
//
// In the Fast variant gesture recognition and transmission are one
// joined atomic task (larger peak energy, no recharge between them); in
// the Compact variant they are separate tasks on a tighter burst bank,
// so the transmission sometimes pays a recharge.
func NewGRC(variant core.Variant, fast bool, sched env.Schedule, trace *sim.Trace, scr *Scratch) (*Run, error) {
	pend := env.NewPendulum(sched)
	pend.FlakyEvery = 10 // intrinsic APDS decode-failure rate

	rec := scratchRecorder(scr)
	photo := device.Phototransistor()
	apds := device.APDS9960()
	radio := device.CC2650()

	report := func(c *task.Ctx, idx uint64, evAt float64, outcome metrics.Outcome) {
		rec.RecordReport(metrics.Report{
			EventIndex: int(idx),
			EventAt:    units.Seconds(evAt),
			ReportedAt: c.Now(),
			Outcome:    outcome,
		})
	}

	sense := &task.Task{
		Name:          "sense",
		PreburstBurst: modeBig,
		PreburstExec:  modeSmall,
		Run: func(c *task.Ctx) task.Next {
			at := c.Sample(photo)
			rec.RecordSample(at)
			c.Compute(8000) // threshold the analog reading
			if pend.ObjectPresent(at) {
				return "gesture"
			}
			return "sense"
		},
	}

	var tasks []*task.Task
	if fast {
		// GRC-Fast: gesture recognition and packet transmission joined
		// into one atomic burst.
		gesture := &task.Task{
			Name:  "gesture",
			Burst: modeBig,
			Run: func(c *task.Ctx) task.Next {
				start := c.Sample(apds)
				outcome, ev := pend.Sense(start, apds.OpTime)
				switch outcome {
				case env.GestureCorrect:
					c.Transmit(radio, 8)
					report(c, uint64(ev.Index), float64(ev.At), metrics.Correct)
				case env.GestureMisclassified:
					c.Transmit(radio, 8)
					report(c, uint64(ev.Index), float64(ev.At), metrics.Misclassified)
				case env.GestureProximityOnly:
					report(c, uint64(ev.Index), float64(ev.At), metrics.ProximityOnly)
				}
				return "sense"
			},
		}
		tasks = []*task.Task{sense, gesture}
	} else {
		// GRC-Compact: recognition, full-swing observation, and
		// transmission are separate tasks; the decoded gesture crosses
		// the task boundaries in non-volatile channels. Observing the
		// remainder of the swing has data-dependent energy cost, so the
		// burst bank sometimes empties mid-pipeline and the
		// transmission pays a recharge (the paper's 54 %-of-events
		// latency behaviour, §6.3).
		gesture := &task.Task{
			Name:  "gesture",
			Burst: modeBig,
			Run: func(c *task.Ctx) task.Next {
				start := c.Sample(apds)
				outcome, ev := pend.Sense(start, apds.OpTime)
				switch outcome {
				case env.GestureCorrect, env.GestureMisclassified:
					c.SetWord("pending.event", uint64(ev.Index)+1)
					c.SetFloat("pending.at", float64(ev.At))
					c.SetFloat("pending.end", float64(ev.End()))
					correct := uint64(0)
					if outcome == env.GestureCorrect {
						correct = 1
					}
					c.SetWord("pending.correct", correct)
					return "observe"
				case env.GestureProximityOnly:
					report(c, uint64(ev.Index), float64(ev.At), metrics.ProximityOnly)
				}
				return "sense"
			},
		}
		observe := &task.Task{
			Name:  "observe",
			Burst: modeBig,
			Run: func(c *task.Ctx) task.Next {
				// Track the rest of the swing for motion refinement.
				rest := units.Seconds(c.FloatOr("pending.end", 0)) - c.Now()
				if rest > 0 {
					c.Activate(apds, rest)
				}
				return "tx"
			},
		}
		tx := &task.Task{
			Name:  "tx",
			Burst: modeBig,
			Run: func(c *task.Ctx) task.Next {
				idx := c.WordOr("pending.event", 0)
				if idx == 0 {
					return "sense"
				}
				c.Transmit(radio, 8)
				outcome := metrics.Misclassified
				if c.WordOr("pending.correct", 0) == 1 {
					outcome = metrics.Correct
				}
				report(c, idx-1, c.FloatOr("pending.at", 0), outcome)
				c.SetWord("pending.event", 0)
				return "sense"
			},
		}
		tasks = []*task.Task{sense, gesture, observe, tx}
	}

	big := grcFastBigBank()
	if !fast {
		big = grcCompactBigBank()
	}
	cfg := buildConfig(variant, grcSupply(), grcFixedBank(), grcSmallBank(), big, trace)
	prog := task.MustProgram("sense", tasks...)
	inst, err := core.New(cfg, prog)
	if err != nil {
		return nil, err
	}
	name := "GestureCompact"
	if fast {
		name = "GestureFast"
	}
	return &Run{
		Name:     name,
		Variant:  variant,
		Schedule: sched,
		Horizon:  sched.Horizon() + 30,
		Rec:      rec,
		Inst:     inst,
	}, nil
}
