package fleet

import (
	"encoding/json"
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
