// Package capysat reproduces the paper's §6.6 case study: a
// solar-powered, board-scale low-earth-orbit satellite built by
// specializing Capybara.
//
// The satellite's constraints (volume 1.7×1.7×0.15 in including panels,
// −40 °C) disqualify batteries and most supercapacitors. The
// application runs on two MCUs concurrently — one sampling the IMU
// (magnetometer, accelerometer, gyroscope), one transmitting to Earth —
// so each MCU permanently exercises one energy mode. That lets the
// general capacitor-bank switch degenerate into a diode splitter that
// always connects both banks to the harvester but dedicates one bank to
// each MCU, at 20 % of the switch area.
//
// The radio has an extreme atomicity requirement: a 1-byte packet with
// a 1064× redundant encoding keeps the radio on for 250 ms at 30 mA.
package capysat

import (
	"fmt"

	"capybara/internal/device"
	"capybara/internal/harvest"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/storage"
	"capybara/internal/units"
)

// Board constraints from §6.6.
const (
	// MinTemperature rules out batteries and many supercaps.
	MinTemperature = -40.0
	// OrbitPeriod is a low-earth-orbit day/night cycle.
	OrbitPeriod units.Seconds = 92 * 60
)

// RadioTxPower is the transmission draw: 30 mA at the 2.0 V rail.
const RadioTxPower units.Power = 60 * units.MilliWatt

// RadioTxTime is the atomic on-time for one 1-byte packet with the
// 1064× redundant encoding.
const RadioTxTime units.Seconds = 250 * units.Millisecond

// Platform is the CapySat power architecture: one harvester, a diode
// splitter feeding two banks, two MCUs.
type Platform struct {
	Sys *power.System
	// Split dedicates SampleBank to the sampling MCU and CommBank to
	// the communication MCU.
	Split *reservoir.Splitter
	// MCU models both processors (identical parts).
	MCU device.MCU
}

// coldTech derates a technology to the mission's temperature floor.
// The platform's parts are chosen to qualify, so failure is a
// configuration bug.
func coldTech(t storage.Technology) storage.Technology {
	out, err := t.AtTemperature(MinTemperature)
	if err != nil {
		panic(err)
	}
	return out
}

// Eligibility lists each catalog technology and whether it survives the
// mission's −40 °C floor — §6.6's "volume and temperature constraints
// severely limit eligible energy-storage technologies, disqualifying
// all batteries, including thin-film, and many super-capacitors".
func Eligibility() map[string]bool {
	out := make(map[string]bool)
	for _, t := range storage.Catalog() {
		_, err := t.AtTemperature(MinTemperature)
		out[t.Name] = err == nil
	}
	return out
}

// New assembles the platform: sun-synchronous panels with a low
// open-circuit voltage (hence the input booster is essential), a small
// sampling bank, and a communication bank of cold-rated CPH3225A
// supercapacitors (ordinary EDLCs are disqualified at −40 °C). All
// parts are derated to the mission temperature.
func New() *Platform {
	src := harvest.SolarPanel{
		PeakPower:          30 * units.MilliWatt,
		OpenCircuitVoltage: 2.0,
		Light:              harvest.DiurnalTrace(OrbitPeriod),
	}
	sys := power.NewSystem(harvest.Limiter{Source: src, Max: 5.5})
	sampleBank := storage.MustBank("sat-sample",
		storage.GroupFor(coldTech(storage.CeramicX5R), 200*units.MicroFarad),
		storage.GroupFor(coldTech(storage.Tantalum), 330*units.MicroFarad))
	commBank := storage.MustBank("sat-comm", storage.GroupOf(coldTech(storage.SupercapCPH3225A), 16))
	return &Platform{
		Sys: sys,
		Split: &reservoir.Splitter{
			BankA: sampleBank,
			BankB: commBank,
			Drop:  0.3,
		},
		MCU: device.MSP430FR5969(),
	}
}

// AreaSavings compares the splitter against the general two-bank switch
// array (§6.6: "the resulting configuration matches the energy storage
// to the application demands, but at 20 % of the area").
func (p *Platform) AreaSavings() (splitter, switches units.Area) {
	return p.Split.Area(), reservoir.SwitchArea
}

// RadioFeasibility quantifies why the boosters are vital: the
// extractable energy for one packet with the full power system, without
// the output booster (direct connection: the bank is only usable down
// to the radio's 2.0 V minimum, with unregulated ESR droop), and
// without the input booster (the bank charges only one diode drop below
// the panel voltage).
type RadioFeasibility struct {
	PacketEnergy    units.Energy
	WithBoost       units.Energy
	NoOutputBoost   units.Energy
	NoInputBoost    units.Energy
	FeasibleBoosted bool
	FeasibleRaw     bool
}

// Feasibility computes the §6.6 booster analysis on the comm bank.
func (p *Platform) Feasibility() RadioFeasibility {
	b := p.Split.BankB
	c := b.Capacitance()
	esr := b.ESR()
	packet := units.Energy(float64(p.Sys.StoreDraw(RadioTxPower)) * float64(RadioTxTime))

	var f RadioFeasibility
	f.PacketEnergy = packet

	// Full system: charge to the mode top, extract down to the
	// boosted cutoff.
	vTop := units.Voltage(2.4)
	cut := p.Sys.CutoffVoltage(esr, RadioTxPower)
	f.WithBoost = units.Energy(float64(units.BandEnergy(c, vTop, cut)) * p.Sys.Out.Efficiency)

	// No output booster: the radio needs its 2.0 V rail directly from
	// the bank, and the unregulated ESR droop raises the floor further:
	// V − (P/V)·R ≥ Vmin.
	vminDirect := directCutoff(device.CC2650().MinVout, RadioTxPower, esr)
	f.NoOutputBoost = units.BandEnergy(c, vTop, vminDirect)

	// No input booster: the bank charges only to the panel voltage
	// minus the diode drop — below the radio's minimum, so nothing is
	// extractable at all.
	peakPanel := maxSourceVoltage(p.Sys, OrbitPeriod)
	rawTop := peakPanel - p.Split.Drop
	f.NoInputBoost = units.BandEnergy(c, rawTop, vminDirect)

	f.FeasibleBoosted = f.WithBoost >= packet
	f.FeasibleRaw = f.NoInputBoost >= packet
	return f
}

// directCutoff solves V − (P/V)·R = vmin for the unboosted discharge
// floor.
func directCutoff(vmin units.Voltage, load units.Power, esr units.Resistance) units.Voltage {
	m := float64(vmin)
	pr := float64(load) * float64(esr)
	return units.Voltage((m + sqrt(m*m+4*pr)) / 2)
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method is fine here; avoids importing math for one call.
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func maxSourceVoltage(sys *power.System, period units.Seconds) units.Voltage {
	var peak units.Voltage
	for i := 0; i < 200; i++ {
		t := units.Seconds(float64(i) / 200 * float64(period))
		if v := sys.Source.VoltageAt(t); v > peak {
			peak = v
		}
	}
	return peak
}

// Result aggregates a mission simulation.
type Result struct {
	Orbits        int
	Samples       int
	Packets       int
	SampleBankMin units.Voltage
	CommBankPeak  units.Voltage
}

func (r Result) String() string {
	return fmt.Sprintf("capysat: %d orbits, %d IMU samples, %d packets to Earth",
		r.Orbits, r.Samples, r.Packets)
}

// Simulate flies the satellite for the given number of orbits. The two
// MCUs run concurrently: the sampling MCU drains its bank for IMU
// bursts whenever charged; the comm MCU fires one packet whenever its
// bank fills. Both banks charge through the splitter during the
// sunlit half of each orbit.
func (p *Platform) Simulate(orbits int) Result {
	const step units.Seconds = 1.0
	// IMU burst: magnetometer + accelerometer + gyroscope back-to-back.
	imuTime := units.Seconds(45 * units.Millisecond)
	imuPower := 6 * units.MilliWatt

	sampleTop := units.Voltage(2.4)
	commTop := units.Voltage(2.4)

	res := Result{Orbits: orbits, SampleBankMin: 99}
	horizon := units.Seconds(orbits) * OrbitPeriod
	for t := units.Seconds(0); t < horizon; t += step {
		p.Split.ChargeBoth(p.Sys, t, step)

		if p.Split.BankA.Voltage() >= sampleTop {
			if _, ok := p.Sys.Discharge(p.Split.BankA, imuPower, imuTime); ok {
				res.Samples++
			}
		}
		if v := p.Split.BankA.Voltage(); v < res.SampleBankMin {
			res.SampleBankMin = v
		}
		if p.Split.BankB.Voltage() >= commTop {
			if _, ok := p.Sys.Discharge(p.Split.BankB, RadioTxPower, RadioTxTime); ok {
				res.Packets++
			}
		}
		if v := p.Split.BankB.Voltage(); v > res.CommBankPeak {
			res.CommBankPeak = v
		}
	}
	return res
}
