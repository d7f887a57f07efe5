package serve

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"
)

// FuzzDecodeRecord: decodeRecord rejects a bad journal line with an error,
// never a panic, and a record it accepts re-encodes to a line that decodes
// to the same record.  With frame set the input is taken as the JSON body
// and given a valid header and CRC, so mutations reach the JSON layer
// instead of stopping at the checksum.
func FuzzDecodeRecord(f *testing.F) {
	accepted, err := encodeRecord(jrec{Type: recAccepted,
		Digest: "sha256:" + fmt.Sprintf("%064x", 1), Spec: []byte(`{"workload":"fib","insts":1000}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(bytes.TrimSuffix(accepted, []byte("\n"))), false)
	f.Add(`{"type":"started","digest":"sha256:00","attempt":2}`, true)
	f.Add(`{"type":"failed","digest":"x","retries":1,"error":"boom"}`, true)
	f.Add(journalMagic+" 0abc", false)
	f.Fuzz(func(t *testing.T, line string, frame bool) {
		if frame {
			line = fmt.Sprintf("%s %08x %s", journalMagic, crc32.Checksum([]byte(line), crcTable), line)
		}
		r, err := decodeRecord(line)
		if err != nil {
			return
		}
		enc, err := encodeRecord(r)
		if err != nil {
			t.Fatalf("decoded record does not encode: %v", err)
		}
		back, err := decodeRecord(string(bytes.TrimSuffix(enc, []byte("\n"))))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, enc)
		}
		if again, err := encodeRecord(back); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the record:\n%s%s", enc, again)
		}
	})
}
