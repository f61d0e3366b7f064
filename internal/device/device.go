// Package device models the loads on a Capybara power system: the
// microcontroller, its non-volatile memory, and the peripherals
// (sensors, radio, LED) the paper's applications exercise.
//
// A load is characterized by the power it draws from the regulated
// output and how long its atomic operations take; the power system
// (internal/power) converts that into storage drain. Datasheet-scale
// values for the MSP430FR5969 and CC2650 parts are provided.
package device

import (
	"fmt"

	"capybara/internal/units"
)

// MCU models a microcontroller class: an MSP430FR5969-like
// FRAM-equipped low-power MCU on the paper's prototypes.
type MCU struct {
	// Name identifies the part.
	Name string
	// ActivePower is the draw at the regulated output while computing.
	ActivePower units.Power
	// SleepPower is the draw in a retentive low-power mode. Sleeping
	// does not stop power-system quiescent drain (§6.4).
	SleepPower units.Power
	// OpsPerSecond is the ALU operation throughput used for atomicity
	// accounting (the "Mops" of Fig. 3 and Fig. 4).
	OpsPerSecond float64
	// BootTime is the time from power-good to the first task
	// instruction, at ActivePower.
	BootTime units.Seconds
}

// MSP430FR5969 returns the prototype MCU model: ~100 µA/MHz at 8 MHz
// and ~2.2 V gives roughly 2 mW active; with FRAM wait states it
// executes about 8 Mops/s.
func MSP430FR5969() MCU {
	return MCU{
		Name:         "MSP430FR5969",
		ActivePower:  2 * units.MilliWatt,
		SleepPower:   2 * units.MicroWatt,
		OpsPerSecond: 8e6,
		BootTime:     5 * units.Millisecond,
	}
}

// ComputeTime returns how long the MCU needs for ops ALU operations.
func (m MCU) ComputeTime(ops float64) units.Seconds {
	if m.OpsPerSecond <= 0 || ops <= 0 {
		return 0
	}
	return units.Seconds(ops / m.OpsPerSecond)
}

func (m MCU) String() string {
	return fmt.Sprintf("%s (%v active, %.0f Mops/s)", m.Name, m.ActivePower, m.OpsPerSecond/1e6)
}

// Peripheral models a sensor, radio, or actuator as a load with a
// warm-up phase and a per-operation active phase.
type Peripheral struct {
	// Name identifies the part.
	Name string
	// ActivePower is the draw while the peripheral operates, in
	// addition to the MCU's own draw.
	ActivePower units.Power
	// Warmup is the initialization time required after the peripheral
	// powers on, at ActivePower (e.g. sensor warm-up, radio stack
	// startup). Warm-up is paid once per power-on session.
	Warmup units.Seconds
	// OpTime is the duration of one atomic operation (one sample, one
	// LED flash).
	OpTime units.Seconds
	// MinVout is the minimum regulated output voltage the part needs
	// (2.5 V gesture sensor, 2.0 V BLE radio — §5.1).
	MinVout units.Voltage
}

func (p Peripheral) String() string {
	return fmt.Sprintf("%s (%v, op %v)", p.Name, p.ActivePower, p.OpTime)
}

// The peripheral catalog used by the paper's three applications.

// Phototransistor is the GRC proximity detector: one cheap analog
// sample detects an object over the board.
func Phototransistor() Peripheral {
	return Peripheral{
		Name:        "phototransistor",
		ActivePower: 200 * units.MicroWatt,
		Warmup:      0,
		OpTime:      1 * units.Millisecond,
		MinVout:     1.8,
	}
}

// APDS9960 is the gesture sensor: it must stay on for at least the
// minimum duration of a gesture motion, 250 ms (§6.1.1). In gesture
// mode the part drives its IR LED at high current, so the average draw
// is tens of milliwatts — this is what makes gesture recognition a
// high-energy atomic task needing a dedicated large bank.
func APDS9960() Peripheral {
	return Peripheral{
		Name:        "APDS-9960",
		ActivePower: 30 * units.MilliWatt,
		Warmup:      30 * units.Millisecond,
		OpTime:      250 * units.Millisecond,
		MinVout:     2.5,
	}
}

// TMP36 is the analog temperature sensor: an 8 ms low-power atomic
// sample (§2 gives "8 milliseconds" as the canonical sensor example).
func TMP36() Peripheral {
	return Peripheral{
		Name:        "TMP36",
		ActivePower: 100 * units.MicroWatt,
		Warmup:      2 * units.Millisecond,
		OpTime:      8 * units.Millisecond,
		MinVout:     1.8,
	}
}

// Magnetometer is CSR's magnetic field sensor.
func Magnetometer() Peripheral {
	return Peripheral{
		Name:        "magnetometer",
		ActivePower: 1 * units.MilliWatt,
		Warmup:      5 * units.Millisecond,
		OpTime:      10 * units.Millisecond,
		MinVout:     1.8,
	}
}

// ProximitySensor is CSR's distance sensor; CSR collects 32 samples
// back-to-back in one atomic task.
func ProximitySensor() Peripheral {
	return Peripheral{
		Name:        "proximity",
		ActivePower: 3 * units.MilliWatt,
		Warmup:      10 * units.Millisecond,
		OpTime:      5 * units.Millisecond,
		MinVout:     2.5,
	}
}

// LED is CSR's indicator, held on for 250 ms.
func LED() Peripheral {
	return Peripheral{
		Name:        "LED",
		ActivePower: 6 * units.MilliWatt,
		Warmup:      0,
		OpTime:      250 * units.Millisecond,
		MinVout:     2.0,
	}
}

// Radio models the CC2650 BLE transmitter. A packet transmission is an
// atomic high-power operation: stack startup plus airtime.
type Radio struct {
	// Name identifies the part.
	Name string
	// TxPower is the draw during transmission.
	TxPower units.Power
	// StartupTime is the radio stack initialization before the first
	// packet of a session, at TxPower.
	StartupTime units.Seconds
	// BaseAirtime is the fixed per-packet airtime (advertising
	// overhead), and PerByte the additional airtime per payload byte.
	// The paper's calibration point: a 25-byte packet occupies the
	// radio atomically for 35 ms.
	BaseAirtime units.Seconds
	PerByte     units.Seconds
	// MinVout is the minimum regulated voltage (2.0 V for BLE, §5.1).
	MinVout units.Voltage
}

// CC2650 returns the prototype radio model.
func CC2650() Radio {
	return Radio{
		Name:        "CC2650",
		TxPower:     27 * units.MilliWatt,
		StartupTime: 10 * units.Millisecond,
		BaseAirtime: 25 * units.Millisecond,
		PerByte:     400e-6,
		MinVout:     2.0,
	}
}

// PacketTime returns the atomic airtime of a packet with the given
// payload size (excluding stack startup).
func (r Radio) PacketTime(payloadBytes int) units.Seconds {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	return r.BaseAirtime + units.Seconds(payloadBytes)*r.PerByte
}

func (r Radio) String() string {
	return fmt.Sprintf("%s (%v TX)", r.Name, r.TxPower)
}
