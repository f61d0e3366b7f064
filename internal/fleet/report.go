package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The canonical report: everything written here is a pure function of
// Config, so the bytes are identical at any worker count. Wall-clock
// diagnostics deliberately live outside it (Result fields, rendered by
// Diagnostics).

// cohortRow is the JSON shape of one cohort.
type cohortRow struct {
	App           string `json:"app"`
	Variant       string `json:"variant"`
	Scenario      string `json:"scenario"`
	Devices       int    `json:"devices"`
	Events        int    `json:"events"`
	Correct       int    `json:"correct"`
	Misclassified int    `json:"misclassified"`
	Missed        int    `json:"missed"`
	AccuracyMean  string `json:"accuracy_mean"`
	AccuracySD    string `json:"accuracy_sd"`
	Reported      int64  `json:"reported"`
	LatencyMean   string `json:"latency_mean_s"`
	LatencySD     string `json:"latency_sd_s"`
	LatencyMax    string `json:"latency_max_s"`
	LatencyBins   []int  `json:"latency_bins"`
	Boots         int    `json:"boots"`
	Brownouts     int    `json:"brownouts"`
	Reconfigs     int    `json:"reconfigs"`
	Precharges    int    `json:"precharges"`
	TimeOnFrac    string `json:"time_on_frac"`
}

// rowScratch is the report writer's reusable formatting state: one
// number buffer shared by every row instead of a fmt.Sprintf allocation
// per field per cohort (the alloc delta is pinned by
// BenchmarkFleetReportCSV).
type rowScratch struct{ buf []byte }

// appendFloat renders x exactly like the report's historical %.9g —
// enough digits to expose any nondeterminism in the fold while staying
// readable.
func (s *rowScratch) appendFloat(dst []byte, x float64) []byte {
	return strconv.AppendFloat(dst, x, 'g', 9, 64)
}

// float renders x into the shared scratch buffer and returns it as a
// string (one small allocation — the string itself — per call; the
// formatting work is allocation-free).
func (s *rowScratch) float(x float64) string {
	s.buf = s.appendFloat(s.buf[:0], x)
	return string(s.buf)
}

// onFrac computes the duty-cycle fraction of a cohort.
func (c *CohortStats) onFrac() float64 {
	if tot := c.TimeOn + c.TimeOff; tot > 0 {
		return float64(c.TimeOn) / float64(tot)
	}
	return 0
}

func (c *CohortStats) row(s *rowScratch) cohortRow {
	bins := c.LatencyHist.Counts
	if bins == nil {
		bins = make([]int, len(latencyEdges)+1)
	}
	return cohortRow{
		App:           c.Cohort.App,
		Variant:       c.Cohort.Variant.String(),
		Scenario:      c.Cohort.Scenario.String(),
		Devices:       c.Devices,
		Events:        c.Events,
		Correct:       c.Correct,
		Misclassified: c.Misclassified,
		Missed:        c.Missed,
		AccuracyMean:  s.float(c.Accuracy.Mean),
		AccuracySD:    s.float(c.Accuracy.StdDev()),
		Reported:      c.Latency.N,
		LatencyMean:   s.float(c.Latency.Mean),
		LatencySD:     s.float(c.Latency.StdDev()),
		LatencyMax:    s.float(c.Latency.Max()),
		LatencyBins:   bins,
		Boots:         c.Boots,
		Brownouts:     c.Brownouts,
		Reconfigs:     c.Reconfigs,
		Precharges:    c.Precharges,
		TimeOnFrac:    s.float(c.onFrac()),
	}
}

const csvHeader = "app,variant,scenario,devices,events,correct,misclassified,missed," +
	"accuracy_mean,accuracy_sd,reported,latency_mean_s,latency_sd_s,latency_max_s," +
	"boots,brownouts,reconfigs,precharges,time_on_frac\n"

// appendCSVRow formats one cohort straight into the report buffer — no
// intermediate row struct, no per-field strings.
func (s *rowScratch) appendCSVRow(b []byte, label, variant, scenario string, c *CohortStats) []byte {
	b = append(b, label...)
	b = append(b, ',')
	b = append(b, variant...)
	b = append(b, ',')
	b = append(b, scenario...)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Devices), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Events), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Correct), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Misclassified), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Missed), 10)
	b = append(b, ',')
	b = s.appendFloat(b, c.Accuracy.Mean)
	b = append(b, ',')
	b = s.appendFloat(b, c.Accuracy.StdDev())
	b = append(b, ',')
	b = strconv.AppendInt(b, c.Latency.N, 10)
	b = append(b, ',')
	b = s.appendFloat(b, c.Latency.Mean)
	b = append(b, ',')
	b = s.appendFloat(b, c.Latency.StdDev())
	b = append(b, ',')
	b = s.appendFloat(b, c.Latency.Max())
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Boots), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Brownouts), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Reconfigs), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(c.Precharges), 10)
	b = append(b, ',')
	b = s.appendFloat(b, c.onFrac())
	b = append(b, '\n')
	return b
}

// WriteCSV renders the canonical per-cohort table plus a TOTAL row.
func (r *Result) WriteCSV(w io.Writer) error {
	var s rowScratch
	b := make([]byte, 0, 256*(len(r.Cohorts)+2))
	b = append(b, csvHeader...)
	for i := range r.Cohorts {
		c := &r.Cohorts[i]
		if c.Devices == 0 {
			continue
		}
		b = s.appendCSVRow(b, c.Cohort.App, c.Cohort.Variant.String(), c.Cohort.Scenario.String(), c)
	}
	total := r.total()
	b = s.appendCSVRow(b, "TOTAL", "-", "-", &total)
	_, err := w.Write(b)
	return err
}

// WriteJSON renders the canonical report as one JSON document.
func (r *Result) WriteJSON(w io.Writer) error {
	type doc struct {
		N       int         `json:"n"`
		Seed    int64       `json:"seed"`
		Scale   string      `json:"scale"`
		Cohorts []cohortRow `json:"cohorts"`
		Total   cohortRow   `json:"total"`
	}
	var s rowScratch
	scale := r.Config.Scale
	if scale == 0 {
		scale = 1.0
	}
	d := doc{N: r.Config.N, Seed: r.Config.Seed, Scale: s.float(scale)}
	for i := range r.Cohorts {
		c := &r.Cohorts[i]
		if c.Devices == 0 {
			continue
		}
		d.Cohorts = append(d.Cohorts, c.row(&s))
	}
	total := r.total()
	d.Total = total.row(&s)
	d.Total.Variant, d.Total.Scenario = "-", "-"
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// total folds every cohort into one grand aggregate, in cohort order.
func (r *Result) total() CohortStats {
	var t CohortStats
	t.Cohort = Cohort{App: "TOTAL"}
	t.LatencyHist.Edges = latencyEdges
	for i := range r.Cohorts {
		c := &r.Cohorts[i]
		if c.Devices == 0 {
			continue
		}
		// merge cannot fail here: every cohort histogram shares
		// latencyEdges.
		if err := t.merge(c); err != nil {
			panic(err)
		}
	}
	return t
}

// Diagnostics renders the non-canonical run facts: wall time,
// throughput and worker count. Separate from the report because they
// depend on scheduling, not on Config.
func (r *Result) Diagnostics() string {
	return fmt.Sprintf("fleet: %d devices in %v (%.0f devices/sec, %d workers)\n",
		r.Config.N, r.Elapsed.Round(1e6), r.DevicesSec, r.Workers)
}
