package fleet

import (
	"bytes"
	"encoding/json"
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
		if j.Spec() != r {
			t.Fatalf("job spec %+v, resolved %+v", j.Spec(), r)
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
