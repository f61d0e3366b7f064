package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"sort"
	"testing"

	"capybara/internal/apps"
)

// writeDeviceStats writes every simulated statistic of device d's
// finished run to w: the device's sim.Stats, the engine's restart count
// and every per-task profile entry (in name order), the reservoir's
// loss accumulators and switch counters, and the runtime's
// reconfiguration and pre-charge counts. Floats are written as their
// IEEE-754 bits, so two runs that differ by one ULP anywhere write
// different bytes.
func writeDeviceStats(w io.Writer, d int, run *apps.Run) {
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			w.Write(buf[:])
		}
	}
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	st := run.Inst.Dev.Stats
	put(uint64(d), uint64(st.Boots), uint64(st.Brownouts),
		bits(float64(st.TimeOn)), bits(float64(st.TimeCharging)), bits(float64(st.TimeOff)),
		bits(float64(st.EnergyDrawn)), bits(float64(st.EnergyIntoStore)))
	eng := run.Inst.Engine
	put(uint64(eng.Restarts), uint64(len(eng.Profile)))
	names := make([]string, 0, len(eng.Profile))
	for name := range eng.Profile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := eng.Profile[name]
		w.Write([]byte(name))
		put(uint64(p.Runs), uint64(p.Failures), bits(float64(p.Time)), bits(float64(p.Energy)))
	}
	arr := run.Inst.Dev.Array
	put(bits(float64(arr.LeakLoss)), bits(float64(arr.ShareLoss)),
		uint64(arr.Reconfigurations), uint64(arr.Reverts))
	rt := run.Inst.Runtime
	put(uint64(rt.Reconfigs), uint64(rt.Precharges))
}

// TestFleetStatsGolden pins every simulated statistic a device
// lifecycle produces, not only the bytes that reach the report: it
// hashes writeDeviceStats for each device of a spec covering all 48
// cohorts twice, run through the fleet's own recycled-scratch path. A
// hot-path change that moves any statistic by one ULP fails here even
// when the report's rounding would hide it.
func TestFleetStatsGolden(t *testing.T) {
	const want = "290bc130a42f1ca9c53a4760165189719308a49af4be093d5c6f69f7479e53f0"
	j, err := NewJob(Config{N: 96, Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	ws := j.NewScratch()
	h := sha256.New()
	restarts := 0
	for d := 0; d < j.cfg.N; d++ {
		run, _, err := j.execute(d, &ws.scr)
		if err != nil {
			t.Fatalf("device %d: %v", d, err)
		}
		writeDeviceStats(h, d, run)
		restarts += run.Inst.Engine.Restarts
	}
	// The spec must exercise the failure path the digest protects.
	if restarts == 0 {
		t.Fatal("no device restarted a task; the spec no longer covers power failures")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("statistics digest %s, want %s", got, want)
	}
}
