package device

import (
	"bytes"
	"fmt"
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

// PeekBlob returns the blob stored under key without copying: the task
// engine looks up its current task once per scheduler iteration. The
// returned slice aliases the store: callers must treat it as read-only
// and must not retain it across writes.
func (s *NVStore) PeekBlob(key string) ([]byte, bool) {
	b, ok := s.blobs[key]
	return b, ok
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
	// order-independent: fills a set.
	for k := range s.words {
		seen[k] = true
	}
	// order-independent: fills a set.
	for k := range s.blobs {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	// order-independent: collects the keys, sorted below.
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NVState is a value copy of an NVStore: every word, every blob (deep
// copied) and the write counter, which the task engine's current-task
// cache keys on.
type NVState struct {
	Words  []NVWord
	Blobs  []NVBlob
	Writes int
}

// NVWord is one stored word in an NVState.
type NVWord struct {
	Key string
	V   uint64
}

// NVBlob is one stored blob in an NVState.
type NVBlob struct {
	Key string
	B   []byte
}

// Save returns a copy of the store's contents. Blobs are copied: the
// task engine recycles the storage of a blob a commit displaces.
func (s *NVStore) Save() NVState {
	st := NVState{Writes: s.writes}
	if len(s.words) > 0 {
		st.Words = make([]NVWord, 0, len(s.words))
	}
	// order-independent: Restore puts the entries back into a map.
	for k, v := range s.words {
		st.Words = append(st.Words, NVWord{k, v})
	}
	if len(s.blobs) > 0 {
		st.Blobs = make([]NVBlob, 0, len(s.blobs))
	}
	// order-independent: Restore puts the entries back into a map.
	for k, b := range s.blobs {
		st.Blobs = append(st.Blobs, NVBlob{k, bytes.Clone(b)})
	}
	return st
}

// Restore replaces the store's contents with st's. The blobs are copied
// again, so st stays intact for further restores whatever the store's
// owner does with its blobs.
func (s *NVStore) Restore(st *NVState) {
	clear(s.words)
	clear(s.blobs)
	for _, w := range st.Words {
		s.words[w.Key] = w.V
	}
	for _, b := range st.Blobs {
		s.blobs[b.Key] = bytes.Clone(b.B)
	}
	s.writes = st.Writes
}

func (s *NVStore) String() string {
	return fmt.Sprintf("nvstore(%d keys, %d writes)", len(s.Keys()), s.writes)
}
