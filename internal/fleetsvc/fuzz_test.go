package fleetsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"capybara/internal/fleet"
)

// FuzzPartialDecode throws arbitrary bytes at the store's entry decoder
// (which layers the checksummed header over fleet.DecodePartial). The
// invariants: never panic, never allocate past the payload bound, and
// anything accepted decodes to a partial for the requested chunk that
// survives a re-encode/re-decode cycle — so no input can smuggle an
// unserializable or mislabeled partial past the checks.
func FuzzPartialDecode(f *testing.F) {
	job, err := fleet.NewJob(fleet.Config{N: 16, Seed: 5, Scale: 0.02, ChunkSize: 8})
	if err != nil {
		f.Fatal(err)
	}
	hash := job.SpecHash()
	cp, err := job.RunChunk(context.Background(), 1, nil)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeEntry(hash, 1, cp)
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: the valid entry, every corruption from the store
	// tests, a bare gob payload with no header, and junk.
	f.Add(valid)
	for _, c := range corruptions {
		f.Add(c.mangle(append([]byte(nil), valid...)))
	}
	f.Add(append([]byte(nil), valid[entryHeaderLen:]...))
	f.Add([]byte(entryMagic))
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeEntry(data, hash, 1)
		if err != nil {
			return // rejected — the expected outcome for almost all inputs
		}
		// Accepted: the partial must be labeled for the requested chunk
		// and survive a full store round trip.
		if got.Chunk != 1 {
			t.Fatalf("accepted entry labeled chunk %d, want 1", got.Chunk)
		}
		re, err := EncodeEntry(hash, 1, got)
		if err != nil {
			t.Fatalf("accepted entry failed to re-encode: %v", err)
		}
		re2, err := DecodeEntry(re, hash, 1)
		if err != nil {
			t.Fatalf("re-encoded entry failed to decode: %v", err)
		}
		var a, b bytes.Buffer
		if err := fleet.EncodePartial(&a, got); err != nil {
			t.Fatal(err)
		}
		if err := fleet.EncodePartial(&b, re2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("partial drifted across a store round trip")
		}
	})
}

// FuzzSubmit throws arbitrary bodies at the submit decoder, which
// submits nothing, so the fuzzer cannot fill a queue. The invariants:
// it never panics; a body over the cap gets 413; an accepted body with
// an object after it gets 400; every rejection is a 400 or a 413; and
// an accepted spec round-trips through JSON unchanged.
func FuzzSubmit(f *testing.F) {
	valid := []byte(`{"n":16,"seed":4,"scale":0.02,"chunk_size":8}`)
	f.Add(valid)
	f.Add([]byte(`{"n":8,"workers":4}`))
	f.Add(append(append([]byte(nil), valid...), `{"n":16}`...))
	f.Add(append(append([]byte(nil), valid...), bytes.Repeat([]byte(" "), maxSubmitBody)...))
	f.Add([]byte{})
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})

	decode := func(body []byte) (SubmitRequest, int, error) {
		r := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", bytes.NewReader(body))
		return decodeSubmit(httptest.NewRecorder(), r)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, code, err := decode(body)
		switch {
		case len(body) > maxSubmitBody:
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body: status %d (%v), want 413", len(body), code, err)
			}
			return
		case err != nil:
			if code != http.StatusBadRequest {
				t.Fatalf("rejected body: status %d (%v), want 400", code, err)
			}
			return
		case code != 0:
			t.Fatalf("accepted body with status %d", code)
		}
		if len(body)+len(`{"n":1}`) <= maxSubmitBody {
			trailing := append(append([]byte(nil), body...), `{"n":1}`...)
			if _, code, err := decode(trailing); code != http.StatusBadRequest {
				t.Fatalf("accepted body plus an object: status %d (%v), want 400", code, err)
			}
		}
		re, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", spec, err)
		}
		again, code, err := decode(re)
		if err != nil || again != spec {
			t.Fatalf("spec %+v round-tripped to %+v (status %d, %v)", spec, again, code, err)
		}
	})
}

// FuzzJournal throws arbitrary bytes at the journal log parser, the
// part of startup that reads what a crash left. The invariants: it
// never panics; the complete part it reports is empty or ends in the
// log's last newline; appending bytes with no newline to a log it
// accepts changes neither the records nor the complete length (a torn
// tail is cut, never read); and every record it accepts encodes to a
// line that parses back to the same record.
func FuzzJournal(f *testing.F) {
	queued := jobRecord{ID: "j000001", Spec: fleet.Spec{N: 16, Seed: 4, Scale: 0.02, ChunkSize: 8},
		SpecHash: strings.Repeat("5e", hashLen/2), State: StateQueued}
	done := queued
	done.State = StateDone
	failed := queued
	failed.State, failed.Error = StateFailed, strings.Repeat("no space left on device; ", 1<<10)
	line := func(rec jobRecord) []byte {
		b, err := encodeRecord(&rec)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	one, two := line(queued), append(line(queued), line(done)...)
	f.Add([]byte{}, []byte{})
	f.Add(one, []byte(`{"id":"j0000`))
	f.Add(append(append([]byte(nil), two...), one[:len(one)/2]...), []byte("x"))
	f.Add(append(append(append([]byte(nil), one...), "{not a record}\n"...), one...), []byte{})
	f.Add(line(failed), []byte{})

	f.Fuzz(func(t *testing.T, log, tail []byte) {
		recs, complete, err := parseJournal(log)
		if complete < 0 || complete > len(log) || (complete > 0 && log[complete-1] != '\n') ||
			bytes.IndexByte(log[complete:], '\n') >= 0 {
			t.Fatalf("complete part %d of a %d-byte log is not up to its last newline", complete, len(log))
		}
		if err != nil {
			return
		}
		tail = bytes.ReplaceAll(tail, []byte("\n"), nil)
		torn, tornComplete, err := parseJournal(append(append([]byte(nil), log...), tail...))
		if err != nil || tornComplete != complete || !reflect.DeepEqual(torn, recs) {
			t.Fatalf("a torn tail changed the parse: %d records, complete %d (%v); want %d and %d",
				len(torn), tornComplete, err, len(recs), complete)
		}
		for _, rec := range recs {
			b, err := encodeRecord(&rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not encode: %v", rec, err)
			}
			again, n, err := parseJournal(b)
			if err != nil || n != len(b) || len(again) != 1 || again[0] != rec {
				t.Fatalf("record %+v parsed back as %+v (complete %d of %d, %v)", rec, again, n, len(b), err)
			}
		}
	})
}
