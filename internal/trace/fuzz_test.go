package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"cobra/internal/sealed"
	"cobra/internal/workloads"
)

// FuzzReader: NewReader and Read reject bad input with an error, never a
// panic, and a stream read cleanly to EOF rewrites to one that reads back
// the same records.  With reseal set the frame's CRC trailer is recomputed
// first, so mutations reach the record parser instead of stopping at the
// checksum.
func FuzzReader(f *testing.F) {
	prog, err := workloads.Get("dhrystone")
	if err != nil {
		f.Fatal(err)
	}
	var captured bytes.Buffer
	if _, err := Capture(&captured, prog, 1, 500); err != nil {
		f.Fatal(err)
	}
	f.Add(captured.Bytes(), false)
	f.Add(captured.Bytes()[:captured.Len()/2], true)
	f.Add(sealed.Frame(magic, nil), false)
	f.Add(sealed.Frame(magic, []byte("\x02\x80\x20\x80\x40")), false)
	f.Add([]byte("CBRT1\n\x02\x80\x20\x80\x40"), true)
	f.Add([]byte("NOPE!!"), false)
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 12 {
			data = sealed.Frame(string(data[:8]), data[8:len(data)-4])
		}
		recs, err := readAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := readAll(&buf)
		if err != nil {
			t.Fatalf("rewritten trace does not read back: %v", err)
		}
		if !reflect.DeepEqual(back, recs) {
			t.Fatalf("round trip changed the records:\n%+v\n%+v", recs, back)
		}
	})
}

// readAll reads a whole trace; a clean end of stream is not an error.
func readAll(r io.Reader) ([]Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := tr.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
}
