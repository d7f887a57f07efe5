package sealed

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The binary formats share one frame: magic [8]byte | body | CRC32-IEEE of
// magic+body, little endian.  The checksum trails so writers can stream.
// Frame/Unframe serve whole-buffer codecs; FrameWriter/FrameReader serve
// streaming ones, under the codec's own bufio layer so hashing is in bulk.

// ErrMagic marks input of another format, or of an older version.
var ErrMagic = errors.New("bad magic")

const magicLen, crcLen = 8, 4

func checkHead(head []byte, magic string) error {
	if found := head[:min(len(head), magicLen)]; string(found) != magic {
		return fmt.Errorf("%w %q: another format or an unsupported version (this build reads %q)", ErrMagic, found, magic)
	}
	if len(head) < magicLen+crcLen {
		return fmt.Errorf("%w: %d-byte frame ends before its checksum", ErrCorrupt, len(head))
	}
	return nil
}

func checkSum(got uint32, trailer []byte) error {
	if want := binary.LittleEndian.Uint32(trailer); got != want {
		return fmt.Errorf("%w: checksum mismatch (trailer %08x, computed %08x): truncated or damaged", ErrCorrupt, want, got)
	}
	return nil
}

// Frame returns magic, body and trailer as one buffer.
func Frame(magic string, body []byte) []byte {
	out := append(append(make([]byte, 0, magicLen+len(body)+crcLen), magic...), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// Unframe checks data's magic and trailer and returns the body between them.
func Unframe(data []byte, magic string) ([]byte, error) {
	if err := checkHead(data, magic); err != nil {
		return nil, err
	}
	end := len(data) - crcLen
	if err := checkSum(crc32.ChecksumIEEE(data[:end]), data[end:]); err != nil {
		return nil, err
	}
	return data[magicLen:end], nil
}

// FrameWriter writes the magic when created, hashes the body on its way
// through Write, and appends the trailer on Close (w stays open).
type FrameWriter struct {
	w   io.Writer
	crc uint32
}

// NewFrameWriter starts a frame on w.
func NewFrameWriter(w io.Writer, magic string) (*FrameWriter, error) {
	fw := &FrameWriter{w: w}
	_, err := io.WriteString(fw, magic)
	return fw, err
}

func (fw *FrameWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.crc = crc32.Update(fw.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (fw *FrameWriter) Close() error {
	_, err := fw.w.Write(binary.LittleEndian.AppendUint32(nil, fw.crc))
	return err
}

// FrameReader checks the magic when created and returns the body through
// Read, holding back the last four bytes: io.EOF comes only once they match
// the checksum, any other end is an error wrapping ErrCorrupt.
type FrameReader struct {
	r     io.Reader
	crc   uint32
	hold  [crcLen]byte
	small [2 * crcLen]byte
}

// NewFrameReader reads and checks the head of the frame on r.
func NewFrameReader(r io.Reader, magic string) (*FrameReader, error) {
	var head [magicLen + crcLen]byte
	n, err := io.ReadFull(r, head[:])
	if err == nil || err == io.EOF || err == io.ErrUnexpectedEOF {
		err = checkHead(head[:n], magic)
	}
	if err != nil {
		return nil, err
	}
	return &FrameReader{r: r, crc: crc32.ChecksumIEEE(head[:magicLen]), hold: [crcLen]byte(head[magicLen:])}, nil
}

func (fr *FrameReader) Read(p []byte) (int, error) {
	// buf is the hold then fresh bytes: n bytes of body, then the new hold.
	buf := p
	if len(p) <= crcLen {
		buf = fr.small[:crcLen+len(p)]
	}
	copy(buf, fr.hold[:])
	n, err := fr.r.Read(buf[crcLen:])
	copy(fr.hold[:], buf[n:n+crcLen])
	copy(p, buf[:n])
	fr.crc = crc32.Update(fr.crc, crc32.IEEETable, p[:n])
	if err == io.EOF {
		if err = checkSum(fr.crc, fr.hold[:]); err == nil {
			err = io.EOF
		}
	}
	return n, err
}

// ExpectEnd checks that r, reading through a FrameReader, has no body left
// and a matching trailer: the last step of a decoder that stops at its own
// record count.
func ExpectEnd(r io.Reader) error {
	switch _, err := io.ReadFull(r, make([]byte, 1)); err {
	case nil:
		return fmt.Errorf("%w: trailing bytes after the last record", ErrCorrupt)
	case io.EOF:
		return nil
	default:
		return err
	}
}
