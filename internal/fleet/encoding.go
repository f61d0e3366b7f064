package fleet

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
)

// Partial serialization: one self-contained gob stream per partial.
//
// This is the single encoding shared by everything that moves a
// ChunkPartial out of process memory: the fleetsvc store entry, which
// the daemon persists to disk and a remote worker sends as the body of
// a finished chunk. Gob transmits float64 values as their exact 64-bit
// patterns, so decode(encode(cp)) is bit-identical to cp: a partial
// that round-trips through disk or the network folds to exactly the
// bytes a freshly computed partial would (the property the
// internal/metrics encode→decode→Merge tests pin for the accumulator
// types, and TestPartialRoundTripBitIdentical pins for the whole
// partial).

// EncodePartial writes cp to w as one self-contained gob stream.
func EncodePartial(w io.Writer, cp *ChunkPartial) error {
	if cp == nil {
		return fmt.Errorf("fleet: encoding nil partial")
	}
	return gob.NewEncoder(w).Encode(cp)
}

// DecodePartial reads one partial from r and checks that it has the
// shape of one this package computes. A fresh decoder per partial
// means a corrupt stream fails at its own boundary, and the caller
// decides what that costs: the fleetsvc store quarantines the entry and
// recomputes the chunk, and the daemon refuses a remote worker's
// result and leases the chunk again.
func DecodePartial(r io.Reader) (*ChunkPartial, error) {
	var cp ChunkPartial
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("fleet: decoding partial: %w", err)
	}
	if err := cp.checkShape(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// checkShape reports whether cp has the shape of a partial this package
// computes: one accumulator per grid cohort, and each touched cohort's
// latency histogram over latencyEdges with a count per bin, or none
// yet. Fold, CohortAccum.Merge and the report index by that shape, so a
// decoded partial without it would fail every fold of its spec, or
// panic one.
func (cp *ChunkPartial) checkShape() error {
	if want := len(CohortLabels()); len(cp.Cohorts) != want {
		return fmt.Errorf("fleet: partial has %d cohorts, want %d", len(cp.Cohorts), want)
	}
	for i := range cp.Cohorts {
		if cp.Cohorts[i].Devices == 0 {
			continue // never merged
		}
		h := &cp.Cohorts[i].LatencyHist
		if !slices.Equal(h.Edges, latencyEdges) || (h.Counts != nil && len(h.Counts) != len(latencyEdges)+1) {
			return fmt.Errorf("fleet: partial cohort %d has a latency histogram of %d edges and %d counts, want edges %v and %d counts",
				i, len(h.Edges), len(h.Counts), latencyEdges, len(latencyEdges)+1)
		}
	}
	return nil
}
