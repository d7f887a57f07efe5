package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"cobra/internal/sealed"
)

// FuzzReadBinary: ReadBinary rejects bad input with an error, never a panic
// or an allocation sized by an unverified count, and whatever it accepts
// writes back to a file that reads to the same events.  With reseal set the
// frame's CRC trailer is recomputed first, so mutations reach the record
// parser instead of stopping at the checksum.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, randomEvents(rand.New(rand.NewSource(5)), 12)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), false)
	f.Add(buf.Bytes()[:40], false)
	f.Add(buf.Bytes()[:100], true)
	f.Add(append(buf.Bytes(), 0, 0, 0, 0), true)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 12 {
			data = sealed.Frame(string(data[:8]), data[8:len(data)-4])
		}
		events, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, events); err != nil {
			t.Fatalf("accepted events do not write: %v", err)
		}
		back, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("rewritten events do not read back: %v", err)
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, back)
		}
	})
}
