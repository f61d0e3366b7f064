package main

import "capybara/internal/fleet"

// engineCounts reads the engine diagnostics a fleet result already
// carries, as per-device counts and useful/attempted ratios. At two
// workers the hit/miss splits depend on which worker ran which chunk,
// so callers collect them over several jobs and report the spread.
func engineCounts(res *fleet.Result) map[string]float64 {
	n := float64(res.Config.N)
	m, b, f := res.Cache, res.Batch, res.Fuse
	ops := float64(b.Hits + b.Misses + b.Uncacheable + b.Bypassed)
	return map[string]float64{
		"power.memo_lookups_per_dev": float64(m.Hits+m.Misses) / n,
		"power.memo_hit_rate":        m.HitRate(),
		"sim.ops_per_dev":            ops / n,
		"sim.op_replay_rate":         b.HitRate(),
		"sim.op_vector_rate":         b.VectorRate(),
		"sim.op_bypass_frac":         ratio(float64(b.Bypassed), ops),
		"sim.op_mean_width":          b.MeanWidth(),
		"task.steps_per_dev":         float64(f.Steps) / n,
		"task.fused_rate":            f.FusedRate(),
		"task.spin_iters_per_dev":    float64(f.SpinIters) / n,
		"task.cohort_spin_rate":      f.CohortSpinRate(),
		"task.fuse_bypass_frac":      ratio(float64(f.Bypassed), float64(f.Steps)),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
