package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseCanonicalize: Parse and Canonicalize reject bad specs with an
// error, never a panic.  An accepted spec is a fixed point — canonicalizing
// it again keeps its digest — and survives a JSON round trip with the same
// digest, which is what makes the digest a safe cache key.
func FuzzParseCanonicalize(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "runspec_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte(`{"workload":"gcc","topology":"TAGE3 > BTB2 > BIM2"}`))
	f.Add([]byte(`{"design":"tage-l","workload":"mcf","core":{"fetch":{"width":8,"inst_bytes":2}}}`))
	f.Add([]byte(`{"workload":"dhrystone","faults":{"kinds":["flip-direction"],"period":9}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Canonicalize(); err != nil {
			return
		}
		d1, err := s.Digest()
		if err != nil {
			t.Fatalf("canonical spec has no digest: %v", err)
		}
		if err := s.Canonicalize(); err != nil {
			t.Fatalf("second Canonicalize rejected a canonical spec: %v", err)
		}
		if d2, err := s.Digest(); err != nil || d2 != d1 {
			t.Fatalf("digest moved on second Canonicalize: %s -> %s (%v)", d1, d2, err)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(raw)
		if err != nil {
			t.Fatalf("canonical JSON does not parse: %v\n%s", err, raw)
		}
		if err := back.Canonicalize(); err != nil {
			t.Fatalf("canonical JSON does not canonicalize: %v\n%s", err, raw)
		}
		if d3, err := back.Digest(); err != nil || d3 != d1 {
			t.Fatalf("JSON round trip moved the digest: %s -> %s (%v)", d1, d3, err)
		}
	})
}

// FuzzParseSet: ParseSet and Canonicalize reject bad grids with an error,
// never a panic, and whatever ParseSet accepts re-marshals to JSON that
// parses back to the same set.
func FuzzParseSet(f *testing.F) {
	g, err := testSet().Canonical()
	if err != nil {
		f.Fatal(err)
	}
	canonical, err := json.Marshal(g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(`{"base":{"workload":"gcc"},"axes":[{"field":"seed","values":[1,2,true]}]}`))
	f.Add([]byte(`{"base":{},"axes":[{"field":"design","values":["b2"],"names":["x"]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseSet(data)
		if err != nil {
			return
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSet(raw)
		if err != nil {
			t.Fatalf("marshaled set does not parse: %v\n%s", err, raw)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("JSON round trip changed the set:\n%s\n%s", raw, again)
		}
		g.Canonicalize() //nolint:errcheck // only a panic or a hang fails here
	})
}
