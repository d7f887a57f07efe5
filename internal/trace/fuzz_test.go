package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"cobra/internal/program"
	"cobra/internal/sealed"
	"cobra/internal/workloads"
)

// FuzzReader: NewReader and Read reject bad input with an error, never a
// panic; Read returns the same records as the byte-at-a-time reference
// decoder and stops at the same record with the same error; and a stream
// read cleanly to EOF rewrites to one that reads back the same records.
// With reseal set the frame's CRC trailer is recomputed first, so mutations
// reach the record parser instead of stopping at the checksum.
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
	// Varints at the 64-bit limit: 9, 10 and 11 continuation bytes, and a
	// tenth byte above 1, each at the end of the stream.
	for _, pc := range []string{"\xff\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff",
		"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"} {
		f.Add(sealed.Frame(magic, []byte("\x02"+pc)), false)
		f.Add(sealed.Frame(magic, []byte("\x02\x10"+pc)), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 12 {
			data = sealed.Frame(string(data[:8]), data[8:len(data)-4])
		}
		recs, err := readAll(bytes.NewReader(data))
		ref, refErr := readAllRef(bytes.NewReader(data))
		if !reflect.DeepEqual(recs, ref) || fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("decoder differs from the reference:\n %d records, err %v\n %d records, err %v (reference)",
				len(recs), err, len(ref), refErr)
		}
		// A source that returns one byte per Read makes every Peek refill.
		slow, slowErr := readAll(iotest.OneByteReader(bytes.NewReader(data)))
		if !reflect.DeepEqual(slow, recs) || fmt.Sprint(slowErr) != fmt.Sprint(err) {
			t.Fatalf("one-byte reads differ: %d records, err %v; want %d, err %v", len(slow), slowErr, len(recs), err)
		}
		if errors.Is(err, sealed.ErrCorrupt) != errors.Is(refErr, sealed.ErrCorrupt) {
			t.Fatalf("err %v and reference err %v disagree on sealed.ErrCorrupt", err, refErr)
		}
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

// readAll reads a whole trace; a clean end of stream is not an error.  On
// an error it returns the records read before it.
func readAll(r io.Reader) ([]Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return drain(tr.Read)
}

// readAllRef is readAll through refRead.
func readAllRef(r io.Reader) ([]Record, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return drain(func() (Record, error) { return refRead(tr.r) })
}

func drain(read func() (Record, error)) ([]Record, error) {
	var recs []Record
	for {
		rec, err := read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// refRead is the reference decoder Reader.Read must agree with: it reads a
// record one byte at a time through io.ByteReader.
func refRead(r *bufio.Reader) (Record, error) {
	head, err := r.ReadByte()
	if err == io.EOF {
		return Record{}, err
	}
	if err != nil {
		return Record{}, fmt.Errorf("trace: %w", err)
	}
	kind := program.Kind(head >> 1)
	if !kind.IsCFI() || kind > program.KindIndirect {
		return Record{}, fmt.Errorf("trace: invalid record kind %d", kind)
	}
	pc, err := binary.ReadUvarint(r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	tgt, err := binary.ReadUvarint(r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	return Record{PC: pc, Kind: kind, Taken: head&1 == 1, Target: tgt}, nil
}

// BenchmarkRead decodes a captured gcc trace with Read and with the
// byte-at-a-time reference decoder.
func BenchmarkRead(b *testing.B) {
	prog, err := workloads.Get("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Capture(&buf, prog, 1, 200000)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		read func(*Reader) (Record, error)
	}{{"peek", (*Reader).Read}, {"bytewise", func(t *Reader) (Record, error) { return refRead(t.r) }}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(buf.Len()))
			for i := 0; i < b.N; i++ {
				tr, err := NewReader(bytes.NewReader(buf.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				var got uint64
				for ; ; got++ {
					if _, err := bc.read(tr); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				if got != n {
					b.Fatalf("read %d of %d records", got, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*n), "ns/record")
		})
	}
}
