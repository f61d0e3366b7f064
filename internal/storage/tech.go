// Package storage models the energy-buffering capacitors of a Capybara
// power system: capacitor technologies with their volumetric density,
// equivalent series resistance (ESR), leakage, and voltage rating, and
// banks composed of parallel groups of unit capacitors.
//
// The package corresponds to the physical capacitor array on the
// Capybara board (paper §2.2.2 and §5.2). It deals only in physics —
// switches, boosters, and reconfiguration policy live in the reservoir
// and power packages.
package storage

import (
	"errors"
	"fmt"
	"math"

	"capybara/internal/units"
)

// Technology describes one capacitor product family. Values are taken
// from datasheet-scale figures for the parts the paper names (X5R
// ceramic, tantalum, Seiko CPH3225A supercapacitor, EDLC supercaps).
type Technology struct {
	// Name identifies the family, e.g. "ceramic-X5R".
	Name string
	// UnitCap is the capacitance of a single unit capacitor.
	UnitCap units.Capacitance
	// UnitVolume is the board volume consumed by one unit.
	UnitVolume units.Volume
	// UnitESR is the equivalent series resistance of one unit.
	// Parallel units divide this (paper §2.2.2: ESR is inversely
	// proportional to the number of capacitors connected in parallel).
	UnitESR units.Resistance
	// UnitLeak is the self-discharge (parallel leakage) resistance of
	// one unit. Zero means leakage is negligible at experiment scale.
	UnitLeak units.Resistance
	// RatedVoltage is the maximum safe charge voltage.
	RatedVoltage units.Voltage
	// MinTemperature is the rated operating floor in °C. The CapySat
	// case study's −40 °C requirement (§6.6) disqualifies parts whose
	// floor is higher — batteries and many supercapacitors.
	MinTemperature float64
	// CapTempCoeff is the fractional capacitance change per °C away
	// from 25 °C (negative: the part loses capacitance when cold).
	CapTempCoeff float64
	// ESRColdFactor is the multiplicative ESR growth per °C below
	// 25 °C (1 = temperature-independent). Electrolytes thicken in the
	// cold; ceramics barely care.
	ESRColdFactor float64
}

// ErrTooCold reports a part operated below its rated floor.
var ErrTooCold = errors.New("storage: below the technology's rated temperature floor")

// AtTemperature returns the technology derated to celsius: capacitance
// scaled by its temperature coefficient and ESR grown by the cold
// factor. Operating below the rated floor returns ErrTooCold — the
// part is disqualified, as §6.6 disqualifies batteries and many
// supercapacitors at −40 °C.
func (t Technology) AtTemperature(celsius float64) (Technology, error) {
	if celsius < t.MinTemperature {
		return Technology{}, fmt.Errorf("%s rated to %g °C, asked for %g °C: %w",
			t.Name, t.MinTemperature, celsius, ErrTooCold)
	}
	const reference = 25.0
	delta := celsius - reference
	out := t
	scale := 1 + t.CapTempCoeff*delta
	if scale < 0.05 {
		scale = 0.05
	}
	out.UnitCap = units.Capacitance(float64(t.UnitCap) * scale)
	if delta < 0 && t.ESRColdFactor > 1 {
		out.UnitESR = units.Resistance(float64(t.UnitESR) * math.Pow(t.ESRColdFactor, -delta))
	}
	out.Name = fmt.Sprintf("%s@%g°C", t.Name, celsius)
	return out, nil
}

func (t Technology) String() string {
	return fmt.Sprintf("%s (%v / %v, ESR %v)", t.Name, t.UnitCap, t.UnitVolume, t.UnitESR)
}

// The technology catalog. The paper's prototypes use X5R ceramics,
// tantalum electrolytics, the ultra-compact CPH3225A supercapacitor,
// and larger EDLC supercaps for the big banks.
var (
	// CeramicX5R models a 22 µF X5R MLCC in a 1210 package
	// (3.2×2.5×1.5 mm). Low density, negligible ESR, no wear.
	CeramicX5R = Technology{
		Name:           "ceramic-X5R",
		UnitCap:        22 * units.MicroFarad,
		UnitVolume:     12,
		UnitESR:        0.01,
		UnitLeak:       0, // negligible over experiment timescales
		RatedVoltage:   6.3,
		MinTemperature: -55,
		CapTempCoeff:   0.002, // X5R: ±15 % over −55…+85 °C
		ESRColdFactor:  1.001,
	}

	// Tantalum models a 330 µF tantalum electrolytic in a 7343 case
	// (7.3×4.3×2.8 mm). Mid density, sub-ohm ESR.
	Tantalum = Technology{
		Name:           "tantalum",
		UnitCap:        330 * units.MicroFarad,
		UnitVolume:     88,
		UnitESR:        0.5,
		UnitLeak:       0,
		RatedVoltage:   6.3,
		MinTemperature: -55,
		CapTempCoeff:   0.001,
		ESRColdFactor:  1.02,
	}

	// SupercapCPH3225A models the Seiko CPH3225A: 11 mF in
	// 3.2×2.5×0.9 mm with a very high ESR (~160 Ω) that limits useful
	// extraction without an output booster (paper §2.2.2, Fig. 4).
	SupercapCPH3225A = Technology{
		Name:           "supercap-CPH3225A",
		UnitCap:        11 * units.MilliFarad,
		UnitVolume:     7.2,
		UnitESR:        160,
		UnitLeak:       50e6,
		RatedVoltage:   3.3,
		MinTemperature: -40, // one of the few supercaps rated this low
		CapTempCoeff:   0.001,
		ESRColdFactor:  1.01,
	}

	// EDLC models a small-can 7.5 mF electric double-layer capacitor
	// with moderate ESR, used for the large Capybara banks.
	EDLC = Technology{
		Name:           "EDLC",
		UnitCap:        7.5 * units.MilliFarad,
		UnitVolume:     50,
		UnitESR:        25,
		UnitLeak:       100e6,
		RatedVoltage:   3.6,
		MinTemperature: -25, // typical aqueous EDLC floor: disqualified at −40 °C
		CapTempCoeff:   0.004,
		ESRColdFactor:  1.04,
	}

	// ThinFilmBattery is a thin-film lithium pseudo-technology used to
	// demonstrate §6.6's battery disqualification: high density, but an
	// operating floor far above −40 °C.
	ThinFilmBattery = Technology{
		Name:           "thin-film-battery",
		UnitCap:        2, // farad-equivalent of ~1 mAh at 2.4 V nominal
		UnitVolume:     120,
		UnitESR:        40,
		UnitLeak:       500e6,
		RatedVoltage:   4.0,
		MinTemperature: -10,
		CapTempCoeff:   0.01,
		ESRColdFactor:  1.08,
	}
)

// Catalog lists every built-in technology, for sweeps and CLIs.
func Catalog() []Technology {
	return []Technology{CeramicX5R, Tantalum, SupercapCPH3225A, EDLC, ThinFilmBattery}
}

// TechnologyByName returns the catalog entry with the given name.
func TechnologyByName(name string) (Technology, error) {
	for _, t := range Catalog() {
		if t.Name == name {
			return t, nil
		}
	}
	return Technology{}, fmt.Errorf("storage: unknown capacitor technology %q", name)
}
