package fleet

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// encodingTestJob is small but covers every cohort at least once.
func encodingTestJob(t *testing.T) *Job {
	t.Helper()
	job, err := NewJob(Config{N: 96, Seed: 11, Scale: 0.05, ChunkSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestPartialRoundTripBitIdentical: decode(encode(cp)) folds to the
// exact bytes the in-memory partial folds to — the property the
// checkpoint store and the daemon's remote workers both rest on. Re-encoding the
// decoded partial must also reproduce the original stream, which
// catches any field gob silently drops or perturbs.
func TestPartialRoundTripBitIdentical(t *testing.T) {
	job := encodingTestJob(t)
	n := job.NumChunks()
	direct := make([]*ChunkPartial, n)
	rt := make([]*ChunkPartial, n)
	for ci := 0; ci < n; ci++ {
		cp, err := job.RunChunk(context.Background(), ci, nil)
		if err != nil {
			t.Fatal(err)
		}
		direct[ci] = cp

		var buf bytes.Buffer
		if err := EncodePartial(&buf, cp); err != nil {
			t.Fatal(err)
		}
		enc := append([]byte(nil), buf.Bytes()...)
		dec, err := DecodePartial(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var buf2 bytes.Buffer
		if err := EncodePartial(&buf2, dec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, buf2.Bytes()) {
			t.Fatalf("chunk %d: re-encoded stream differs from original", ci)
		}
		rt[ci] = dec
	}

	want := renderCSV(t, job, direct)
	got := renderCSV(t, job, rt)
	if want != got {
		t.Fatalf("report from round-tripped partials differs:\n--- direct ---\n%s--- roundtrip ---\n%s", want, got)
	}
}

func renderCSV(t *testing.T, job *Job, partials []*ChunkPartial) string {
	t.Helper()
	res, err := job.Fold(partials)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestDecodePartialGarbage: corrupt streams, and well-formed streams of
// a partial bent out of the shape this package computes, fail with an
// error, never a panic, and never decode to a partial.
func TestDecodePartialGarbage(t *testing.T) {
	job := encodingTestJob(t)
	// bent encodes chunk 0's partial after bend has changed it.
	bent := func(bend func(cp *ChunkPartial)) []byte {
		cp, err := job.RunChunk(context.Background(), 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		bend(cp)
		var buf bytes.Buffer
		if err := EncodePartial(&buf, cp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := bent(func(*ChunkPartial) {})
	// touched is the first cohort chunk 0 has a latency count for.
	touched := func(cp *ChunkPartial) *CohortAccum {
		for i := range cp.Cohorts {
			if cp.Cohorts[i].LatencyHist.Counts != nil {
				return &cp.Cohorts[i]
			}
		}
		t.Fatal("chunk 0 binned no latency")
		return nil
	}

	cases := map[string][]byte{
		"empty":          {},
		"garbage":        {0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4},
		"truncated":      valid[:len(valid)/2],
		"wrong grid":     bent(func(cp *ChunkPartial) { cp.Cohorts = cp.Cohorts[:1] }),
		"foreign edges":  bent(func(cp *ChunkPartial) { c := touched(cp); c.LatencyHist.Edges = c.LatencyHist.Edges[:2] }),
		"extra counts":   bent(func(cp *ChunkPartial) { c := touched(cp); c.LatencyHist.Counts = append(c.LatencyHist.Counts, 1) }),
		"missing counts": bent(func(cp *ChunkPartial) { c := touched(cp); c.LatencyHist.Counts = c.LatencyHist.Counts[:1] }),
	}
	for name, data := range cases {
		if _, err := DecodePartial(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s: decoded without error", name)
		}
	}

	if err := EncodePartial(&bytes.Buffer{}, nil); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil partial accepted: %v", err)
	}
}
