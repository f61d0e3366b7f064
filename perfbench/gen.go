package main

import (
	"fmt"
	"hash/fnv"

	"capybara/internal/fleet"
)

// Workload names, as given to --workload.
const (
	fleetShort = "fleet-short"
	fleetLong  = "fleet-long"
	service    = "service"
)

var workloadNames = []string{fleetShort, fleetLong, service}

// Service jobs: serviceSpecs distinct specs per seed, each small — a few
// chunks at short scale — so a cold job computes in tens of
// milliseconds and a warm one is all store reads.
const (
	serviceSpecs = 24
	serviceN     = 96
	serviceChunk = 32
	serviceScale = 0.01
)

// inputs is everything a workload feeds the program, generated from the
// workload seed alone. The program only ever sees these specs.
type inputs struct {
	Workload string
	Seed     int64
	// Fleet is the in-process fleet jobs: the timed jobs of the fleet
	// workloads, and the jobs the traced layer sweep decomposes.
	Fleet []fleet.Spec
	// Service is the daemon's job sequence. The fleet workloads carry a
	// short sequence cut from their own cohorts (N = four chunks of the
	// fleet spec) so the traced sweep can time the daemon on them too.
	Service []fleet.Spec
}

// generate derives a workload's inputs from its seed. The same
// (workload, seed) always yields the same inputs.
//
// A fleet's cost depends on its fleet seed — the seed draws every PWM
// and blackout cohort's trace — by up to a third, so each fleet
// workload cycles through several fleet seeds per run and reports their
// average.
func generate(workload string, seed int64) (inputs, error) {
	in := inputs{Workload: workload, Seed: seed}
	switch workload {
	case fleetShort:
		for i := 0; i < 8; i++ {
			in.Fleet = append(in.Fleet, fleet.Spec{N: 2016, Seed: derive(seed, workload, i), Scale: 0.01, ChunkSize: 64})
		}
	case fleetLong:
		for i := 0; i < 4; i++ {
			in.Fleet = append(in.Fleet, fleet.Spec{N: 96, Seed: derive(seed, workload, i), Scale: 1.0, ChunkSize: 2})
		}
	case service:
		for i := 0; i < serviceSpecs; i++ {
			in.Service = append(in.Service, fleet.Spec{
				N: serviceN, Seed: derive(seed, "service", i), Scale: serviceScale, ChunkSize: serviceChunk,
			})
		}
		in.Fleet = in.Service[:8]
		return in, nil
	default:
		return inputs{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	f := in.Fleet[0]
	for i := 0; i < 4; i++ {
		in.Service = append(in.Service, fleet.Spec{
			N: 4 * f.ChunkSize, Seed: derive(seed, workload+"/service", i), Scale: f.Scale, ChunkSize: f.ChunkSize,
		})
	}
	return in, nil
}

// derive maps (seed, label, i) to a non-negative fleet seed through
// SplitMix64, so neighbouring workload seeds give unrelated fleets.
func derive(seed int64, label string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	z := uint64(seed) ^ h.Sum64()
	z += uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

// config turns a spec into the engine config the benchmark runs. It
// sets parallelism only: every other execution option keeps the
// engine's default, so the benchmark measures what ships.
func config(s fleet.Spec, jobs int) fleet.Config {
	return fleet.Config{N: s.N, Seed: s.Seed, Scale: s.Scale, ChunkSize: s.ChunkSize, Jobs: jobs}
}
