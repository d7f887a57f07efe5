package sealed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

const testMagic = "CBRATEST"

// chunkReader returns at most n bytes per Read, so the frame reader's
// hold-back sees every split of the trailer across reads.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// readStream reads a whole frame body through the stream path.
func readStream(data []byte, chunk int) ([]byte, error) {
	fr, err := NewFrameReader(chunkReader{bytes.NewReader(data), chunk}, testMagic)
	if err != nil {
		return nil, err
	}
	return io.ReadAll(fr)
}

// TestFrameLayout pins the layout every framed format shares: magic, body,
// then the CRC32-IEEE of magic+body, little endian.
func TestFrameLayout(t *testing.T) {
	body := []byte("some body bytes")
	got := Frame(testMagic, body)
	want := append([]byte(testMagic), body...)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))
	if !bytes.Equal(got, want) {
		t.Fatalf("Frame = %q, want %q", got, want)
	}
	var buf bytes.Buffer
	fw, err := NewFrameWriter(&buf, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(fw, 16)
	bw.Write(body[:3])
	bw.Write(body[3:])
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("FrameWriter wrote %q, want %q", buf.Bytes(), want)
	}
}

// TestFrameRoundTrip: both paths return the body, whatever the read sizes,
// including a source that returns its last bytes together with io.EOF.
func TestFrameRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 3, 4, 5, 4096, 10000} {
		body := bytes.Repeat([]byte{0xA5, 0x01, 0x7F}, size)[:size]
		data := Frame(testMagic, body)
		if got, err := Unframe(data, testMagic); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d: Unframe = %d bytes, %v", size, len(got), err)
		}
		for _, chunk := range []int{1, 2, 3, 4, 5, 7, 4096} {
			if got, err := readStream(data, chunk); err != nil || !bytes.Equal(got, body) {
				t.Fatalf("size %d chunk %d: stream = %d bytes, %v", size, chunk, len(got), err)
			}
		}
		fr, err := NewFrameReader(iotest.DataErrReader(bytes.NewReader(data)), testMagic)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := io.ReadAll(fr); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("size %d, data with EOF: %d bytes, %v", size, len(got), err)
		}
	}
}

// TestFrameRejectsDamage: every cut and every flipped bit fails both
// paths, with ErrMagic when the magic is hit and ErrCorrupt otherwise.
func TestFrameRejectsDamage(t *testing.T) {
	data := Frame(testMagic, []byte("0123456789abcdef"))
	check := func(name string, bad []byte, want error) {
		t.Helper()
		if _, err := Unframe(bad, testMagic); !errors.Is(err, want) {
			t.Errorf("%s: Unframe err = %v, want %v", name, err, want)
		}
		if _, err := readStream(bad, 3); !errors.Is(err, want) {
			t.Errorf("%s: stream err = %v, want %v", name, err, want)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		want := ErrCorrupt
		if cut < len(testMagic) {
			want = ErrMagic
		}
		check("cut", data[:cut], want)
	}
	for bit := 0; bit < 8*len(data); bit++ {
		bad := append([]byte(nil), data...)
		bad[bit/8] ^= 1 << (bit % 8)
		want := ErrCorrupt
		if bit/8 < len(testMagic) {
			want = ErrMagic
		}
		check("flip", bad, want)
	}
	check("trailing", append(append([]byte(nil), data...), 0), ErrCorrupt)
}

// TestFrameRejectsOldVersions: the unchecked formats the frame replaced
// fail with "unsupported version" naming the magic found.
func TestFrameRejectsOldVersions(t *testing.T) {
	for _, old := range []string{"CBRAEVT1", "CBRT1\n"} {
		data := []byte(old + "\x00\x01\x02\x03\x04\x05")
		_, err := Unframe(data, testMagic)
		if !errors.Is(err, ErrMagic) || !strings.Contains(err.Error(), "unsupported version") || !strings.Contains(err.Error(), fmt.Sprintf("%q", old)[:6]) {
			t.Errorf("%q: err = %v, want unsupported version", old, err)
		}
		if _, err := readStream(data, 4096); !errors.Is(err, ErrMagic) {
			t.Errorf("%q: stream err = %v, want ErrMagic", old, err)
		}
	}
}

// TestExpectEnd: a decoder that stops at its own record count accepts the
// clean end and rejects trailing body bytes and a bad trailer.
func TestExpectEnd(t *testing.T) {
	body := []byte("rec1rec2")
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"clean":    {Frame(testMagic, body), nil},
		"trailing": {Frame(testMagic, append(body, 'x')), ErrCorrupt},
		"bad crc":  {append(append([]byte(testMagic), body...), 0, 0, 0, 0), ErrCorrupt},
	} {
		fr, err := NewFrameReader(bytes.NewReader(tc.data), testMagic)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(fr)
		if _, err := io.ReadFull(br, make([]byte, len(body))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := ExpectEnd(br); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: ExpectEnd = %v, want %v", name, err, tc.want)
		}
	}
}

// FuzzFrameReader: the stream reader never panics, and it accepts exactly
// what Unframe accepts, returning the same body, for any read size.
func FuzzFrameReader(f *testing.F) {
	f.Add(Frame(testMagic, []byte("body")), uint8(0))
	f.Add(Frame(testMagic, nil), uint8(2))
	f.Add(Frame(testMagic, bytes.Repeat([]byte{7}, 300))[:200], uint8(255))
	f.Add([]byte("CBRT1\n\x02\x80\x20\x80\x40"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		want, werr := Unframe(data, testMagic)
		got, gerr := readStream(data, int(chunk)+1)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("Unframe err = %v, stream err = %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("stream body %q != Unframe body %q", got, want)
		}
	})
}
