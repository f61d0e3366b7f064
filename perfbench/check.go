package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"capybara/internal/fleet"
)

// digests.json records, per fleet workload and seed, the combined digest
// of the fleet jobs' CSV reports at the commit that recorded it
// (regenerate with -record).
// A seed with no entry is still checked against a reference computed in
// the same run; the table additionally pins the bytes across commits.
//
//go:embed digests.json
var digestsJSON []byte

var recorded map[string]map[string]string

func init() {
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
}

// recordedDigest returns the recorded report digest for (workload, seed).
func recordedDigest(workload string, seed int64) (string, bool) {
	d, ok := recorded[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// combinedDigest fingerprints a workload's reports, in spec order.
func combinedDigest(reports [][]byte) string {
	var all []byte
	for _, r := range reports {
		all = append(all, digest(r)...)
		all = append(all, '\n')
	}
	return digest(all)
}

// checkDigest reports whether report hashes to want.
func checkDigest(report []byte, want string) error {
	if got := digest(report); got != want {
		return fmt.Errorf("report digest %.12s, want %.12s", got, want)
	}
	return nil
}

// csvReport renders a result's canonical CSV report.
func csvReport(res *fleet.Result) ([]byte, error) {
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// checkCohorts verifies the fold's accounting: no cohort has more
// correct, misclassified and missed events than events, and the
// cohorts' devices sum to the fleet size. The three need not add up to
// the events: an event can also end proximity-only (metrics.Accuracy),
// an outcome the fleet accumulator does not keep.
func checkCohorts(res *fleet.Result, n int) error {
	devices := 0
	for _, c := range res.Cohorts {
		if c.Correct < 0 || c.Misclassified < 0 || c.Missed < 0 || c.Correct+c.Misclassified+c.Missed > c.Events {
			return fmt.Errorf("cohort %v: %d correct + %d misclassified + %d missed exceed %d events",
				c.Cohort, c.Correct, c.Misclassified, c.Missed, c.Events)
		}
		devices += c.Devices
	}
	if devices != n {
		return fmt.Errorf("cohorts hold %d devices, want %d", devices, n)
	}
	return nil
}
