package fleet

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// FuzzResolveSpec decodes arbitrary bytes as a job spec, the way the
// daemon decodes a submit body, and drives it through Spec.Resolve,
// NewJob and NumChunks. A spec Resolve accepts must resolve to itself,
// build a job with that spec, and have between 1 and MaxChunks chunks
// whose last one ends at N; a spec it rejects must fail NewJob too.
func FuzzResolveSpec(f *testing.F) {
	for _, s := range []string{
		`{"n":96,"seed":1}`,
		`{"n":96,"seed":1,"scale":1,"chunk_size":64}`,
		`{"n":9223372036854775807,"seed":1}`,
		`{"n":2000000000,"chunk_size":1}`,
		`{"n":9223372036854775807,"chunk_size":4611686018427387904}`,
		`{"n":67108864}`,
		`{"n":67108865}`,
		`{"n":1,"scale":-0.0,"chunk_size":-5}`,
		`{"n":-1}`,
		`{"n":5,"scale":1.5}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		cfg := spec.Exec(1)
		r, err := spec.Resolve()
		if err != nil {
			if _, jerr := NewJob(cfg); jerr == nil {
				t.Fatalf("Resolve rejects %+v (%v) but NewJob accepts it", spec, err)
			}
			return
		}
		if again, err := r.Resolve(); err != nil || again != r {
			t.Fatalf("resolved spec %+v resolves to %+v, %v", r, again, err)
		}
		j, err := NewJob(cfg)
		if err != nil {
			t.Fatalf("Resolve accepts %+v but NewJob fails: %v", spec, err)
		}
		if got := (Spec{N: j.cfg.N, Seed: j.cfg.Seed, Scale: j.scale, ChunkSize: j.chunk}); got != r {
			t.Fatalf("job spec %+v, resolved %+v", got, r)
		}
		n := j.NumChunks()
		if n < 1 || n > MaxChunks {
			t.Fatalf("%+v has %d chunks", r, n)
		}
		if lo, hi := j.chunkBounds(n - 1); lo >= hi || hi != r.N {
			t.Fatalf("%+v: last chunk [%d, %d), want it to end at N", r, lo, hi)
		}
	})
}

// FuzzPrefixesAcrossJobs runs the jobs an input describes, in turn,
// through one prefix store. Each five bytes make one job: a seed from a
// pool of three, N, scale, chunk size and worker count. Every job's
// partials must equal the unshared reference, and once every Compute has
// returned the store must hold no seeded list.
func FuzzPrefixesAcrossJobs(f *testing.F) {
	f.Add([]byte{0, 47, 0, 15, 0, 1, 95, 1, 31, 2})
	f.Add([]byte{2, 23, 2, 63, 1, 2, 20, 0, 3, 2, 0, 60, 1, 7, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 48, 2, 5, 2})
	scales := []float64{0.01, 0.02, 0.05}
	var mu sync.Mutex
	refs := make(map[Spec][]byte) // unshared references, kept across inputs
	f.Fuzz(func(t *testing.T, data []byte) {
		pre := NewPrefixes()
		for i := 0; i+5 <= len(data) && i < 4*5; i += 5 {
			b := data[i : i+5]
			spec := Spec{Seed: 51 + int64(b[0]%3), N: 1 + int(b[1])%96, Scale: scales[b[2]%3], ChunkSize: 1 + int(b[3])%32}
			j, err := NewJob(spec.Exec(0))
			if err != nil {
				t.Fatal(err)
			}
			got, err := computeAll(j, 1+int(b[4])%3, pre)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			want, ok := refs[spec]
			mu.Unlock()
			if !ok {
				want = encodePartials(t, referencePartials(t, j))
				mu.Lock()
				refs[spec] = want
				mu.Unlock()
			}
			if !bytes.Equal(encodePartials(t, got), want) {
				t.Fatalf("job %d, %+v: partials on the shared store differ from the unshared ones", i/5, spec)
			}
		}
		if keys := seededKeys(pre); len(keys) > 0 {
			t.Fatalf("%d seeded lists outlived every Compute, such as %+v", len(keys), keys[0])
		}
	})
}
