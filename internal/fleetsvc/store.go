// Package fleetsvc turns the one-shot fleet engine into a persistent,
// resumable service: a content-addressed on-disk store of completed
// chunk partials, a job queue whose state survives process death and
// whose jobs lease the chunks the store lacks to the service's own
// workers and to remote ones (Work, lease.go), and an HTTP/JSON API
// over all of it (cmd/capyfleet -serve-http and -connect).
//
// The store is the load-bearing piece. A chunk partial is a pure
// function of (spec, chunk index) — which also lets a lease whose
// worker vanished be granted again — so persisting partials keyed by
// SpecHash/chunk gives three properties at once:
//
//   - crash resume: a killed run's completed chunks are on disk; a
//     restart folds them and computes only the remainder, and the final
//     report is byte-identical to an uninterrupted run (gob preserves
//     float bit patterns; the fold order is fixed by chunk index);
//   - cross-run memoization: two jobs with the same SpecHash share
//     chunk work through the store, whichever ran first, and a finished
//     spec's reports too;
//   - cross-binary scope: the SpecHash covers the spec, the cohort grid
//     and samples of each scenario trace, not the simulator code, so a
//     binary whose grid or traces drifted misses, as a lease request
//     from a remote worker of such a build is refused. A binary whose device physics drifted
//     derives the same hash: stored partials and reports are trusted
//     only across binaries whose reports for a spec agree.
//
// Each field of an entry's header is checked against what the reader
// asked for, and one SHA-256 covers the payload, so a truncated,
// bit-flipped, or misfiled entry is detected, quarantined (moved aside,
// never deleted — it is evidence), and recomputed rather than folded.
package fleetsvc

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"bytes"

	"capybara/internal/fleet"
)

// Store layout under the root directory:
//
//	partials/<spechash>/<chunk index, 8 digits>.cp   checkpointed partials
//	quarantine/<unique name>.bad                     corrupt entries, moved aside
//	jobs/journal.log                                 service job journal, one JSON record per line (service.go)
//	jobs/<id>.json                                   per-job journals of older binaries, read and never written
//	reports/<spechash>.{csv,json}                    finished reports, one per spec (service.go)
//
// Entry format (entryHeaderLen bytes, then the gob payload):
//
//	[0:8)    magic "CAPYCP1\n"
//	[8:72)   spec hash, 64 hex bytes
//	[72:80)  chunk index, big-endian uint64
//	[80:88)  payload length, big-endian uint64
//	[88:120) SHA-256 of the payload
//
// The header fields are each validated against what the reader already
// knows (the hash and chunk it asked for, the file's actual size), and
// the checksum validates the payload, so a flip of any byte anywhere in
// the entry is detected.

const (
	entryMagic     = "CAPYCP1\n"
	entryHeaderLen = 120
	hashLen        = 64
	// maxEntryPayload bounds a payload before it is trusted: a corrupt
	// length field must not drive allocation, nor a remote worker's
	// result body (the result endpoint caps it at the header plus this).
	// A real partial is orders of magnitude smaller.
	maxEntryPayload = 16 << 20
)

// ErrNotFound reports a partial that is not in the store (including one
// that was quarantined on read): the caller recomputes.
var ErrNotFound = errors.New("fleetsvc: partial not in store")

// errCorrupt is the internal verdict that triggers quarantine; callers
// of Get only ever see ErrNotFound for it.
var errCorrupt = errors.New("fleetsvc: corrupt store entry")

// Store is a content-addressed checkpoint store for chunk partials.
// All methods are safe for concurrent use; writes are atomic (temp file
// + rename), so a crash mid-Put leaves either the complete entry or no
// entry, never a torn one.
type Store struct {
	dir string
	seq atomic.Int64 // temp-file uniquifier
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("fleetsvc: empty store directory")
	}
	for _, sub := range []string{"partials", "quarantine", "jobs", "reports"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("fleetsvc: opening store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func validHash(hash string) error {
	if len(hash) != hashLen {
		return fmt.Errorf("fleetsvc: spec hash %q: want %d hex chars", hash, hashLen)
	}
	for i := 0; i < len(hash); i++ {
		c := hash[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("fleetsvc: spec hash %q: not lowercase hex", hash)
		}
	}
	return nil
}

func (s *Store) hashDir(hash string) string {
	return filepath.Join(s.dir, "partials", hash)
}

func chunkFile(ci int) string {
	return fmt.Sprintf("%08d.cp", ci)
}

// EncodeEntry renders one store entry: the header, with the payload's
// SHA-256, then the gob payload. Exposed (package-level) so tests and
// the fuzz target build entries without a Store.
func EncodeEntry(hash string, ci int, cp *fleet.ChunkPartial) ([]byte, error) {
	if err := validHash(hash); err != nil {
		return nil, err
	}
	if ci < 0 {
		return nil, fmt.Errorf("fleetsvc: negative chunk index %d", ci)
	}
	var payload bytes.Buffer
	if err := fleet.EncodePartial(&payload, cp); err != nil {
		return nil, err
	}
	if payload.Len() > maxEntryPayload {
		return nil, fmt.Errorf("fleetsvc: partial payload %d bytes exceeds limit %d", payload.Len(), maxEntryPayload)
	}
	buf := make([]byte, entryHeaderLen+payload.Len())
	copy(buf[0:8], entryMagic)
	copy(buf[8:8+hashLen], hash)
	binary.BigEndian.PutUint64(buf[72:80], uint64(ci))
	binary.BigEndian.PutUint64(buf[80:88], uint64(payload.Len()))
	sum := sha256.Sum256(payload.Bytes())
	copy(buf[88:120], sum[:])
	copy(buf[entryHeaderLen:], payload.Bytes())
	return buf, nil
}

// DecodeEntry validates and decodes one store entry against the
// (hash, chunk) the caller expects. Any mismatch — magic, hash, index,
// length, checksum, or payload decode — returns an error wrapping
// errCorrupt; it never panics, whatever the bytes (FuzzPartialDecode
// pins that).
func DecodeEntry(data []byte, hash string, ci int) (*fleet.ChunkPartial, error) {
	if len(data) < entryHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than the %d-byte header", errCorrupt, len(data), entryHeaderLen)
	}
	if string(data[0:8]) != entryMagic {
		return nil, fmt.Errorf("%w: bad magic %q", errCorrupt, data[0:8])
	}
	if got := string(data[8 : 8+hashLen]); got != hash {
		return nil, fmt.Errorf("%w: entry is for spec %s, not %s", errCorrupt, got, hash)
	}
	if got := binary.BigEndian.Uint64(data[72:80]); got != uint64(ci) {
		return nil, fmt.Errorf("%w: entry is for chunk %d, not %d", errCorrupt, got, ci)
	}
	plen := binary.BigEndian.Uint64(data[80:88])
	if plen > maxEntryPayload || plen != uint64(len(data)-entryHeaderLen) {
		return nil, fmt.Errorf("%w: payload length %d does not match %d entry bytes", errCorrupt, plen, len(data)-entryHeaderLen)
	}
	payload := data[entryHeaderLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[88:120]) {
		return nil, fmt.Errorf("%w: payload checksum mismatch", errCorrupt)
	}
	cp, err := fleet.DecodePartial(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if cp.Chunk != ci {
		return nil, fmt.Errorf("%w: payload labeled chunk %d, not %d", errCorrupt, cp.Chunk, ci)
	}
	return cp, nil
}

// Put checkpoints chunk ci's partial under hash. Concurrent Puts of the
// same (hash, ci) — two jobs sharing a spec — are safe: the payloads
// are bit-identical by the purity argument, and rename is atomic, so
// whichever lands last wins without a reader ever seeing a torn entry.
func (s *Store) Put(hash string, ci int, cp *fleet.ChunkPartial) error {
	data, err := EncodeEntry(hash, ci, cp)
	if err != nil {
		return err
	}
	return s.put(hash, ci, data)
}

// put stores data, an entry EncodeEntry built or DecodeEntry validated,
// as chunk ci of hash. Concurrent puts may create the spec's directory
// at once: os.MkdirAll succeeds for the one whose Mkdir loses.
func (s *Store) put(hash string, ci int, data []byte) error {
	dir := s.hashDir(hash)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleetsvc: put chunk %d: %w", ci, err)
	}
	if err := writeFileAtomic(dir, chunkFile(ci), data, s.seq.Add(1)); err != nil {
		return fmt.Errorf("fleetsvc: put chunk %d: %w", ci, err)
	}
	return nil
}

// Get loads chunk ci's partial for hash. A missing entry returns
// ErrNotFound. A corrupt entry (truncated, bit-flipped, misfiled, or
// undecodable) is quarantined — moved into quarantine/ for inspection —
// and also returns ErrNotFound, so callers uniformly recompute.
func (s *Store) Get(hash string, ci int) (*fleet.ChunkPartial, error) {
	if err := validHash(hash); err != nil {
		return nil, err
	}
	path := filepath.Join(s.hashDir(hash), chunkFile(ci))
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("fleetsvc: get chunk %d: %w", ci, err)
	}
	cp, err := DecodeEntry(data, hash, ci)
	if err != nil {
		if errors.Is(err, errCorrupt) {
			s.quarantine(path, hash, ci, err)
			return nil, ErrNotFound
		}
		return nil, err
	}
	return cp, nil
}

// Load reads every checkpointed chunk of the spec with the given hash
// and chunk count. The result has one entry per chunk, nil wherever the
// store holds no valid entry: corrupt entries are quarantined by Get and
// come back nil like any other miss, so the caller recomputes exactly
// the nil chunks.
func (s *Store) Load(ctx context.Context, hash string, chunks int) ([]*fleet.ChunkPartial, error) {
	out := make([]*fleet.ChunkPartial, chunks)
	for ci := range out {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cp, err := s.Get(hash, ci)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return nil, err
		}
		out[ci] = cp
	}
	return out, nil
}

// quarantine moves a corrupt entry out of the partials tree, with a
// sidecar note recording why. Failure to move (e.g. a concurrent
// quarantine already won) is not fatal — the entry will simply be
// re-detected on the next read if it is still there.
func (s *Store) quarantine(path, hash string, ci int, cause error) {
	dst := filepath.Join(s.dir, "quarantine",
		fmt.Sprintf("%s-%08d-%d.bad", hash, ci, s.seq.Add(1)))
	if err := os.Rename(path, dst); err != nil {
		return
	}
	_ = os.WriteFile(dst+".reason", []byte(cause.Error()+"\n"), 0o644)
}

// writeFileAtomic writes name under dir via a unique temp file and
// rename, so readers only ever observe complete files. A failed write or
// rename removes the temp file: nothing reads or collects it later. It
// never fsyncs: the store survives the daemon's kill -9, not power loss
// (DESIGN §9).
func writeFileAtomic(dir, name string, data []byte, seq int64) error {
	tmp := filepath.Join(dir, fmt.Sprintf(".tmp-%d-%d-%s", os.Getpid(), seq, name))
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
