package interval

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cobra/internal/sealed"
)

// FuzzDecode: Decode rejects bad input with an error, never a panic, and
// whatever it accepts encodes back to a file that decodes to the same set.
// With reseal set the frame's CRC trailer is recomputed first, so mutations reach the
// structural parser instead of stopping at the checksum.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.ivl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, false)
	f.Add(golden[:len(golden)/2], true)
	empty, err := (&Set{IntervalInsts: 100}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty, true)
	f.Add(encodeF(f, randomSet(rand.New(rand.NewSource(3)), 4)), true)
	// A window whose cycle span wraps past 2^64 decoded, then failed to
	// encode: magic, interval 1, nothing dropped, no names, one window at
	// index 0 starting at cycle MaxUint64, cycle span 1, every other field 0.
	wrap := binary.AppendUvarint([]byte("CBRAIVL1\x01\x00\x00\x01\x00"), math.MaxUint64)
	wrap = append(append(wrap, 0, 1), make([]byte, 15)...)
	f.Add(append(wrap, 0, 0, 0, 0), true)
	// Found by this target: a provider table naming "0000" twice decoded,
	// but re-encoded to a file whose windows outnumber its table.
	f.Add([]byte("CBRAIVL100\x06\x040000\x040000\x0500000\x0500000\x0500000#00000000000000000000000000000000000\x04000000000000000000\x03\x0100\x0200\x0500000000000000000\x04\x0300\x0100\x0400\x02000000000000000\xea00\x02\x0400\x05000000000000000\x9000\x02\x0300\x04000000"), true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 12 {
			data = sealed.Frame(string(data[:8]), data[8:len(data)-4])
		}
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("decoded set does not encode: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		s.Hash, back.Hash = "", ""
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the set:\n%+v\n%+v", s, back)
		}
		if again, _ := back.Encode(); !bytes.Equal(again, enc) {
			t.Fatal("encoding is not stable across a round trip")
		}
	})
}

func encodeF(f *testing.F, s *Set) []byte {
	data, err := s.Encode()
	if err != nil {
		f.Fatal(err)
	}
	return data
}
