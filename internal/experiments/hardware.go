package experiments

import (
	"fmt"
	"sort"
	"strings"

	"capybara/internal/capysat"
	"capybara/internal/harvest"
	"capybara/internal/power"
	"capybara/internal/reservoir"
	"capybara/internal/storage"
	"capybara/internal/units"
)

// Mechanism comparison (§5.2) — cold-start time, area, leakage, and
// write endurance of the three reconfiguration mechanisms: switched
// capacitor banks (controlling C), a non-volatile Vtop threshold
// (digital potentiometer + supervisor), and a Vbottom threshold (the
// MCU's comparator).

// MechanismRow is one mechanism's comparison entry.
type MechanismRow struct {
	Name      string
	ColdStart units.Seconds
	Area      units.Area
	Leak      units.Current
	Endurance int
}

// Mechanisms runs the comparison on a TempAlarm-scale platform.
func Mechanisms() []MechanismRow {
	sys := power.NewSystem(harvest.RegulatedSupply{Max: 1 * units.MilliWatt, V: 3.0})
	small := storage.MustBank("small",
		storage.GroupFor(storage.CeramicX5R, 300*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 100*units.MicroFarad))
	full := storage.MustBank("full",
		storage.GroupFor(storage.CeramicX5R, 300*units.MicroFarad),
		storage.GroupFor(storage.Tantalum, 1100*units.MicroFarad),
		storage.GroupOf(storage.EDLC, 1))

	mechs := []reservoir.Mechanism{
		reservoir.SwitchedBankMechanism{SmallBank: small, Banks: 2},
		reservoir.VtopMechanism{FullBank: full, Banks: 2},
		reservoir.VbottomMechanism{FullBank: full, Vtop: 2.4},
	}
	taskEnergy := 10 * units.MilliJoule
	rows := make([]MechanismRow, 0, len(mechs))
	for _, m := range mechs {
		rows = append(rows, MechanismRow{
			Name:      m.Name(),
			ColdStart: m.ColdStartTime(sys, taskEnergy),
			Area:      m.Area(),
			Leak:      m.LeakCurrent(),
			Endurance: m.WriteEndurance(),
		})
	}
	return rows
}

// MechanismTable renders the §5.2 comparison.
func MechanismTable(rows []MechanismRow) *Table {
	t := &Table{
		Title:  "§5.2 — reconfiguration mechanism comparison",
		Header: []string{"mechanism", "cold start", "area", "leakage", "endurance"},
	}
	for _, r := range rows {
		endurance := "unlimited"
		if r.Endurance > 0 {
			endurance = fmt.Sprint(r.Endurance)
		}
		t.Rows = append(t.Rows, []string{
			r.Name, r.ColdStart.String(), r.Area.String(), r.Leak.String(), endurance,
		})
	}
	return t
}

// Characterization (§6.5) — board-area and switch-retention figures of
// the Capybara hardware.
func Characterization() *Table {
	sw := reservoir.DefaultSwitch(reservoir.NormallyOpen)
	return &Table{
		Title:  "§6.5 — Capybara hardware characterization",
		Header: []string{"item", "value"},
		Rows: [][]string{
			{"solar panel area", reservoir.SolarArea.String()},
			{"power system area", reservoir.PowerSystemArea.String()},
			{"reconfiguration switch area", reservoir.SwitchArea.String()},
			{"latch capacitor", sw.LatchCap.String()},
			{"switch state retention", sw.Retention().String()},
			{"pre-charge voltage deficit", reservoir.PrechargeDeficit.String()},
		},
	}
}

// CapySatStudy (§6.6) — the satellite case study: booster feasibility,
// splitter area savings, technology eligibility at −40 °C, and a
// mission simulation.
type CapySatStudy struct {
	Feasibility capysat.RadioFeasibility
	Splitter    units.Area
	Switches    units.Area
	Mission     capysat.Result
	Eligibility map[string]bool
}

// CapySat runs the case study.
func CapySat(orbits int) CapySatStudy {
	p := capysat.New()
	var s CapySatStudy
	s.Feasibility = p.Feasibility()
	s.Splitter, s.Switches = p.AreaSavings()
	s.Mission = p.Simulate(orbits)
	s.Eligibility = capysat.Eligibility()
	return s
}

// Table renders the case study.
func (s CapySatStudy) Table() *Table {
	return &Table{
		Title:  "§6.6 — CapySat case study",
		Header: []string{"item", "value"},
		Rows: [][]string{
			{"packet energy (250 ms @ 30 mA)", s.Feasibility.PacketEnergy.String()},
			{"extractable, full power system", s.Feasibility.WithBoost.String()},
			{"extractable, no output booster", s.Feasibility.NoOutputBoost.String()},
			{"extractable, no input booster", s.Feasibility.NoInputBoost.String()},
			{"radio feasible (boosted)", fmt.Sprint(s.Feasibility.FeasibleBoosted)},
			{"radio feasible (raw)", fmt.Sprint(s.Feasibility.FeasibleRaw)},
			{"splitter area", s.Splitter.String()},
			{"general switch area", s.Switches.String()},
			{"orbits simulated", fmt.Sprint(s.Mission.Orbits)},
			{"IMU samples", fmt.Sprint(s.Mission.Samples)},
			{"packets to Earth", fmt.Sprint(s.Mission.Packets)},
			{"eligible at -40 °C", eligibleList(s.Eligibility, true)},
			{"disqualified at -40 °C", eligibleList(s.Eligibility, false)},
		},
	}
}

func eligibleList(m map[string]bool, want bool) string {
	var names []string
	// order-independent: collects names, sorted below.
	for name, ok := range m {
		if ok == want {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
