package task

import (
	"encoding/binary"
	"math"
)

func floatBits(v float64) uint64     { return math.Float64bits(v) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// appendFloatBytes encodes v onto a fresh copy of b — for staging a
// series whose backing bytes are not owned by the caller (an NV view).
func appendFloatBytes(b []byte, v float64) []byte {
	out := make([]byte, len(b), len(b)+64)
	copy(out, b)
	return appendFloatInPlace(out, v)
}

// appendFloatInPlace encodes v onto b itself (amortized growth); the
// caller must own b.
func appendFloatInPlace(b []byte, v float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	return append(b, buf[:]...)
}

// floatHeadroom is the spare capacity decodeFloats leaves past the
// decoded values, so a caller can push onto the series in place.
const floatHeadroom = 8

// decodeFloats decodes b into buf's storage, reallocating only when buf
// lacks room for the values plus floatHeadroom.
func decodeFloats(buf []float64, b []byte) []float64 {
	n := len(b) / 8
	if cap(buf) < n+floatHeadroom {
		buf = make([]float64, 0, n+floatHeadroom)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return buf
}
