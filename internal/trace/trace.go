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
)

// Record is one retired control-flow instruction.
type Record struct {
	PC     uint64
	Kind   program.Kind
	Taken  bool
	Target uint64
}

const magic = "CBRT1\n"

// Writer streams records to a binary trace.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter starts a trace stream.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
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

// Flush finishes the stream.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader consumes a binary trace.
type Reader struct {
	r *bufio.Reader
}

// NewReader validates the header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic")
	}
	return &Reader{r: br}, nil
}

// Read returns the next record or io.EOF.
func (t *Reader) Read() (Record, error) {
	head, err := t.r.ReadByte()
	if err != nil {
		return Record{}, err
	}
	// Only control-flow instructions are traced (see Capture).
	kind := program.Kind(head >> 1)
	if !kind.IsCFI() || kind > program.KindIndirect {
		return Record{}, fmt.Errorf("trace: invalid record kind %d", kind)
	}
	pc, err := binary.ReadUvarint(t.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	tgt, err := binary.ReadUvarint(t.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: truncated record: %w", err)
	}
	return Record{
		PC:     pc,
		Kind:   kind,
		Taken:  head&1 == 1,
		Target: tgt,
	}, nil
}

// Capture runs a program's oracle for n instructions and writes its
// control-flow records (the way one would capture a ChampSim trace).
func Capture(w io.Writer, prog *program.Program, seed uint64, n uint64) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	o := program.NewOracle(prog, seed)
	for o.Count() < n {
		s := o.Next()
		if !s.Inst.Kind.IsCFI() {
			continue
		}
		if err := tw.Write(Record{
			PC: s.PC, Kind: s.Inst.Kind, Taken: s.Taken, Target: s.Target,
		}); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}
