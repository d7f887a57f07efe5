// Package trace provides a binary branch-trace format plus a trace-driven
// evaluator in the style of the software simulators the paper's §II-B
// discusses (ChampSim, CBPSim).
//
// The trace-driven evaluator drives the *same* composed predictor pipeline
// as the full core, but under the idealized conditions a trace simulator
// assumes: in-order branches only, perfect histories, immediate updates, no
// speculation, no wrong-path pollution, no update delay.  Comparing its
// accuracy against the in-core accuracy for the identical predictor
// quantifies the modelling error the paper argues software simulators hide
// — speculative history corruption, delayed commit-time updates, and
// superscalar packet effects simply do not exist in trace land.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cobra/internal/program"
	"cobra/internal/sealed"
)

// Record is one retired control-flow instruction.
type Record struct {
	PC     uint64
	Kind   program.Kind
	Taken  bool
	Target uint64
}

// A CBRATRC2 trace is a stream of records inside the sealed frame (magic
// "CBRATRC2", records, CRC32 trailer), so a trace cut anywhere, even at a
// record boundary, fails to read instead of ending early.
const magic = "CBRATRC2"

// Writer streams records to a binary trace.
type Writer struct {
	fw    *sealed.FrameWriter
	w     *bufio.Writer
	count uint64
}

// NewWriter starts a trace stream.
func NewWriter(w io.Writer) (*Writer, error) {
	fw, err := sealed.NewFrameWriter(w, magic)
	if err != nil {
		return nil, err
	}
	return &Writer{fw: fw, w: bufio.NewWriter(fw)}, nil
}

// Write appends one record (varint-packed: flags+kind, pc, target).
func (t *Writer) Write(r Record) error {
	var buf [binary.MaxVarintLen64 * 2]byte
	head := byte(r.Kind) << 1
	if r.Taken {
		head |= 1
	}
	if err := t.w.WriteByte(head); err != nil {
		return err
	}
	n := binary.PutUvarint(buf[:], r.PC)
	n += binary.PutUvarint(buf[n:], r.Target)
	if _, err := t.w.Write(buf[:n]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Close finishes the stream with the checksum trailer; it does not close
// the underlying writer.
func (t *Writer) Close() error {
	if err := t.w.Flush(); err != nil {
		return err
	}
	return t.fw.Close()
}

// maxRecord is the longest encoded record: the head byte and two varints.
const maxRecord = 1 + 2*binary.MaxVarintLen64

// Reader consumes a binary trace.
type Reader struct {
	r *bufio.Reader
	// end is the error that cut the stream short (io.EOF after a matching
	// trailer), kept from the first short Peek: every byte left is then
	// buffered, and each later record is decoded from the buffer alone.
	end error
}

// NewReader validates the magic and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	fr, err := sealed.NewFrameReader(r, magic)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &Reader{r: bufio.NewReader(fr)}, nil
}

// Read returns the next record, or io.EOF once the last record has been
// read and the trailer matches.  A damaged or cut trace is an error
// wrapping sealed.ErrCorrupt.  The record is decoded from one Peek of the
// buffered frame, so a record costs no call per byte.
func (t *Reader) Read() (Record, error) {
	n := maxRecord
	if t.end != nil {
		n = t.r.Buffered()
	}
	buf, err := t.r.Peek(n)
	if err != nil {
		t.end = err
	}
	if len(buf) == 0 {
		if t.end == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: %w", t.end)
	}
	// Only control-flow instructions are traced (see Capture).
	head := buf[0]
	kind := program.Kind(head >> 1)
	if !kind.IsCFI() || kind > program.KindIndirect {
		return Record{}, fmt.Errorf("trace: invalid record kind %d", kind)
	}
	pc, np := binary.Uvarint(buf[1:])
	if np <= 0 {
		return Record{}, t.truncated(buf[1:], np)
	}
	tgt, nt := binary.Uvarint(buf[1+np:])
	if nt <= 0 {
		return Record{}, t.truncated(buf[1+np:], nt)
	}
	_, _ = t.r.Discard(1 + np + nt) // peeked, so buffered: Discard cannot fail
	return Record{
		PC:     pc,
		Kind:   kind,
		Taken:  head&1 == 1,
		Target: tgt,
	}, nil
}

// errOverflow is binary.ReadUvarint's error for a varint longer than 64
// bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// truncated explains a varint that binary.Uvarint could not decode from
// rest, the bytes left of the record (n is its result): an overflow, or a
// stream that ended inside the varint.  A full Peek always holds a whole
// varint, so in the second case the stream has ended, with t.end.
func (t *Reader) truncated(rest []byte, n int) error {
	err := t.end
	switch {
	case n < 0 || len(rest) >= binary.MaxVarintLen64:
		err = errOverflow
	case err == io.EOF && len(rest) > 0:
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: truncated record: %w", err)
}

// Capture runs a program's oracle for n instructions and writes its
// control-flow records (the way one would capture a ChampSim trace).
func Capture(w io.Writer, prog *program.Program, seed uint64, n uint64) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	o := program.NewOracle(prog, seed)
	var s program.Step
	for o.Count() < n {
		o.Next(&s)
		if !s.Inst.Kind.IsCFI() {
			continue
		}
		if err := tw.Write(Record{
			PC: s.PC, Kind: s.Inst.Kind, Taken: s.Taken, Target: s.Target,
		}); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Close()
}
