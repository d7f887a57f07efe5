package fleet

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// FuzzParse: a fleet file, YAML or JSON, is rejected with an error, never a
// panic.  An accepted fleet re-marshals to JSON that parses back to the same
// services with the same Merkle digests (or the same dependency cycle).
func FuzzParse(f *testing.F) {
	for _, path := range []string{"../../fleets/paper-small.yaml", "../../fleets/paper.yaml"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"services": {"d1": {"experiment": {"id": "d1", "insts": 1000}}}}`))
	f.Add([]byte("services:\n  a:\n    bundle: [b]\n  b:\n    run:\n      design: b2\n      workload: fib\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := Parse(data)
		if err != nil {
			return
		}
		raw, err := json.Marshal(fl)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(raw)
		if err != nil {
			t.Fatalf("accepted fleet does not re-parse: %v\n%s", err, raw)
		}
		want, werr := fl.Digests()
		got, gerr := back.Digests()
		if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("JSON round trip changed the digests:\n%v (%v)\n%v (%v)", want, werr, got, gerr)
		}
	})
}

// FuzzCacheRecord: decoding a cache record never panics, whatever its bytes,
// and a record that hits re-encodes to one that decodes the same.  An
// encoded result decodes back to the same name, digest, interval digests
// and output for any name (every name validate accepts, inner spaces and
// newlines included, is among them) and any output bytes, and a header
// naming another digest is a miss.
func FuzzCacheRecord(f *testing.F) {
	const hit = "sha256:ab"
	f.Add([]byte("service=paper digest="+hit+"\n"), "paper", []byte("Fig. 10\n"), uint8(0))
	f.Add([]byte(`service="a b\n" digest=`+hit+" intervals=sha256:01,sha256:02\nout"), "a b\nc", []byte{0, '\n', 0xff}, uint8(2))
	f.Add([]byte(`service=x"y digest=`+hit+" intervals=\n\n"), `"q" \\`, []byte(nil), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, name string, output []byte, n uint8) {
		if sr, ok := decodeRecord(data, hit); ok {
			back, ok := decodeRecord(encodeRecord(sr), hit)
			if !ok || !reflect.DeepEqual(back, sr) {
				t.Fatalf("decoded %+v re-encodes to %+v (hit %v)", sr, back, ok)
			}
		}
		hash := func(i int) string {
			return fmt.Sprintf("sha256:%x", sha256.Sum256(append([]byte{byte(i)}, output...)))
		}
		want := &ServiceResult{Name: name, Digest: hash(0), Output: string(output)}
		for i := 1; i <= int(n%4); i++ {
			want.IntervalDigests = append(want.IntervalDigests, hash(i))
		}
		rec := encodeRecord(want)
		if got, ok := decodeRecord(rec, want.Digest); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("record %q decodes to %+v (hit %v), want %+v", rec, got, ok, want)
		}
		if _, ok := decodeRecord(rec, hash(4)); ok {
			t.Fatalf("record %q hits under another digest", rec)
		}
	})
}
