package fleet

// Result.Cache, Result.Batch and Result.Fuse are always zero. They
// exist only because perfbench (perfbench/engine.go) reads them for its
// power.memo_*, sim.op_* and task.* per-layer counts, so each type
// keeps exactly the members it reads. Remove them together with those
// counts.

// CacheStats is the always-zero charge-solve memo counter set:
// perfbench/engine.go:12 reads Result.Cache, and lines 14–15 its Hits,
// Misses and HitRate.
type CacheStats struct {
	Hits, Misses uint64
}

// HitRate is 0: nothing is memoized.
func (CacheStats) HitRate() float64 { return 0 }

// BatchStats is the always-zero device-op replay counter set.
type BatchStats struct {
	Hits, Misses, Uncacheable, Bypassed uint64
}

// HitRate, VectorRate and MeanWidth are 0: nothing is replayed.
func (BatchStats) HitRate() float64    { return 0 }
func (BatchStats) VectorRate() float64 { return 0 }
func (BatchStats) MeanWidth() float64  { return 0 }

// FuseStats is the always-zero fused-stepping counter set.
type FuseStats struct {
	Steps, SpinIters, Bypassed uint64
}

// FusedRate and CohortSpinRate are 0: nothing is fused.
func (FuseStats) FusedRate() float64      { return 0 }
func (FuseStats) CohortSpinRate() float64 { return 0 }
