package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestFleetReportGolden pins the SHA-256 of the canonical CSV and JSON
// reports for two small specs. Between them the specs cover every
// cohort of the grid (steady, PWM and blackout scenarios of every
// app/variant pair), the default chunking and a small chunk size that
// splits cohorts across many partials. Any change to the simulator
// that moves a report byte fails here.
func TestFleetReportGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cfg       Config
		csv, json string
	}{
		{
			name: "seed1-scale0.05",
			cfg:  Config{N: 96, Seed: 1, Scale: 0.05},
			csv:  "56509358995510741be9f32929080de2865b2deda9bf442ca3b6e5e1282b4597",
			json: "2885c0655890546fa5f6abddb03440b7fed6735c009f458add9136447cdf9ce4",
		},
		{
			name: "seed7-scale0.2-chunk4",
			cfg:  Config{N: 96, Seed: 7, Scale: 0.2, ChunkSize: 4},
			csv:  "9db5f25c83646a47c8f18c0d77bcce02a731deb03d7318a7ae780afb17c0cd86",
			json: "fcd5d596328354605819b2996b81813651269c979af7d44ca30340cbe173989c",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csv, js := render(t, tc.cfg)
			if got := digest(csv); got != tc.csv {
				t.Errorf("CSV digest %s, want %s", got, tc.csv)
			}
			if got := digest(js); got != tc.json {
				t.Errorf("JSON digest %s, want %s", got, tc.json)
			}
		})
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
