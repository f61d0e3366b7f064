package device

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// NVStore models the MCU's non-volatile memory (FRAM on the
// MSP430FR5969). Values written here survive power failures; everything
// else on the device is volatile and lost at each reboot. The Capybara
// runtime keeps its state machine and the task runtime keeps its
// channels in an NVStore (§4.3: "robust to power failures by careful
// use of non-volatile memory").
//
// The zero value is not usable; call NewNVStore.
type NVStore struct {
	words  map[string]uint64
	blobs  map[string][]byte
	writes int
}

// NewNVStore returns an empty non-volatile memory.
func NewNVStore() *NVStore {
	return &NVStore{words: make(map[string]uint64), blobs: make(map[string][]byte)}
}

// Writes returns the number of NV write operations performed, for wear
// and overhead accounting.
func (s *NVStore) Writes() int { return s.writes }

// SetWord durably stores a 64-bit word under key.
func (s *NVStore) SetWord(key string, v uint64) {
	s.words[key] = v
	s.writes++
}

// Word returns the word stored under key and whether it exists.
func (s *NVStore) Word(key string) (uint64, bool) {
	v, ok := s.words[key]
	return v, ok
}

// WordOr returns the stored word or def when absent.
func (s *NVStore) WordOr(key string, def uint64) uint64 {
	if v, ok := s.words[key]; ok {
		return v
	}
	return def
}

// SetFloat durably stores a float64 under key.
func (s *NVStore) SetFloat(key string, v float64) {
	s.SetWord(key, math.Float64bits(v))
}

// FloatOr returns the stored float or def when absent.
func (s *NVStore) FloatOr(key string, def float64) float64 {
	if v, ok := s.words[key]; ok {
		return math.Float64frombits(v)
	}
	return def
}

// SetBlob durably stores a byte slice under key (copied).
func (s *NVStore) SetBlob(key string, b []byte) {
	cp := make([]byte, len(b))
	copy(cp, b)
	s.blobs[key] = cp
	s.writes++
}

// SetBlobOwned durably stores b under key without copying. The caller
// relinquishes ownership: b must not be read or written afterwards.
// It returns the blob b replaced (nil when key held none), which the
// store no longer references: PeekBlob views must not be kept across
// writes, so the caller owns the old slice and may reuse its storage.
// The task engine's commit path uses this to move staged blobs into NV
// without a copy per transition and to recycle the displaced buffer;
// external callers should use SetBlob.
func (s *NVStore) SetBlobOwned(key string, b []byte) (old []byte) {
	old = s.blobs[key]
	s.blobs[key] = b
	s.writes++
	return old
}

// Blob returns a copy of the blob stored under key.
func (s *NVStore) Blob(key string) ([]byte, bool) {
	b, ok := s.blobs[key]
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp, true
}

// PeekBlob returns the blob stored under key without copying. The
// returned slice aliases the store: callers must treat it as read-only
// and must not retain it across writes. Hot read paths (the task
// engine's current-task lookup runs once per scheduler iteration) use
// this to avoid a copy per read; everything else should use Blob.
func (s *NVStore) PeekBlob(key string) ([]byte, bool) {
	b, ok := s.blobs[key]
	return b, ok
}

// AppendFloat appends a float64 to a durable series under key — the
// applications use this for sensor time series.
func (s *NVStore) AppendFloat(key string, v float64) {
	b := s.blobs[key]
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	s.blobs[key] = append(b, buf[:]...)
	s.writes++
}

// FloatSeries decodes the durable series under key.
func (s *NVStore) FloatSeries(key string) []float64 {
	b := s.blobs[key]
	out := make([]float64, 0, len(b)/8)
	for i := 0; i+8 <= len(b); i += 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
	}
	return out
}

// Delete removes a key from both spaces.
func (s *NVStore) Delete(key string) {
	delete(s.words, key)
	delete(s.blobs, key)
	s.writes++
}

// Keys lists all stored keys in sorted order.
func (s *NVStore) Keys() []string {
	seen := make(map[string]bool, len(s.words)+len(s.blobs))
	for k := range s.words {
		seen[k] = true
	}
	for k := range s.blobs {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns a deep copy, for testing checkpoint-and-compare
// failure injection.
func (s *NVStore) Snapshot() *NVStore {
	cp := NewNVStore()
	for k, v := range s.words {
		cp.words[k] = v
	}
	for k, v := range s.blobs {
		b := make([]byte, len(v))
		copy(b, v)
		cp.blobs[k] = b
	}
	return cp
}

func (s *NVStore) String() string {
	return fmt.Sprintf("nvstore(%d keys, %d writes)", len(s.Keys()), s.writes)
}
