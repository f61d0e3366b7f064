package power

// SegmentCache is an inert stub: nothing reads it (DESIGN.md §7, "The
// removed segment memo"). It survives only because
// perfbench/layers.go:39 still declares a []*power.SegmentCache; remove
// it with that line.
type SegmentCache struct{}

// NewSegmentCache returns an empty SegmentCache and ignores its
// argument. perfbench/layers.go:59 still calls it.
func NewSegmentCache(int) *SegmentCache { return &SegmentCache{} }
