package fleet

// Result.Batch and Result.Fuse are always zero. They exist only
// because perfbench (perfbench/engine.go) reads them for its sim.op_*
// and task.* per-layer counts, so each type keeps exactly the members
// it reads. Remove them together with those counts.

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
