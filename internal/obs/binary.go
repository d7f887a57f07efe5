package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"cobra/internal/sealed"
)

// CBRAEVT2 event-file body (little endian), inside the sealed frame (magic
// "CBRAEVT2", body, CRC32 trailer), read back by cobra events:
//
//	nComp   uint32   component string-table size
//	        per component: uint16 length + raw bytes
//	nEvents uint64
//	        per event: kind u8, comp u16 (string-table index; 0xFFFF = ""),
//	                   slot i16, dur u16, pad u8,
//	                   cycle u64, pc u64, seq u64, metasum u64
//
// The fixed 40-byte record keeps a million-event trace at ~40 MB and makes
// filtering by seek trivial for future tooling.

const eventMagic = "CBRAEVT2"

const noComp = 0xFFFF

// WriteBinary writes events in the compact binary format.
func WriteBinary(w io.Writer, events []Event) error {
	comps := map[string]uint16{}
	var order []string
	for _, ev := range events {
		if ev.Comp == "" {
			continue
		}
		if _, ok := comps[ev.Comp]; !ok {
			if len(order) >= noComp {
				return fmt.Errorf("obs: more than %d distinct components", noComp)
			}
			if len(ev.Comp) > 0xFFFF {
				return fmt.Errorf("obs: component name too long (%d bytes)", len(ev.Comp))
			}
			comps[ev.Comp] = uint16(len(order))
			order = append(order, ev.Comp)
		}
	}
	fw, err := sealed.NewFrameWriter(w, eventMagic)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(fw)
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(order)))
	bw.Write(u32[:])
	for _, name := range order {
		binary.LittleEndian.PutUint16(u16[:], uint16(len(name)))
		bw.Write(u16[:])
		bw.WriteString(name)
	}
	binary.LittleEndian.PutUint64(u64[:], uint64(len(events)))
	bw.Write(u64[:])
	var rec [40]byte
	for i := range events {
		ev := &events[i]
		rec[0] = byte(ev.Kind)
		ci := uint16(noComp)
		if ev.Comp != "" {
			ci = comps[ev.Comp]
		}
		binary.LittleEndian.PutUint16(rec[1:3], ci)
		binary.LittleEndian.PutUint16(rec[3:5], uint16(ev.Slot))
		binary.LittleEndian.PutUint16(rec[5:7], ev.Dur)
		rec[7] = 0
		binary.LittleEndian.PutUint64(rec[8:16], ev.Cycle)
		binary.LittleEndian.PutUint64(rec[16:24], ev.PC)
		binary.LittleEndian.PutUint64(rec[24:32], ev.Seq)
		binary.LittleEndian.PutUint64(rec[32:40], ev.MetaSum)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return fw.Close()
}

// ReadBinary reads an event file written by WriteBinary.  Bytes after the
// last event, or a trailer that does not match, fail it with an error
// wrapping sealed.ErrCorrupt.
func ReadBinary(r io.Reader) ([]Event, error) {
	fr, err := sealed.NewFrameReader(r, eventMagic)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	br := bufio.NewReader(fr)
	var u16 [2]byte
	var u32 [4]byte
	var u64 [8]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, err
	}
	nComp := binary.LittleEndian.Uint32(u32[:])
	if nComp >= noComp {
		return nil, fmt.Errorf("obs: implausible component count %d", nComp)
	}
	comps := make([]string, nComp)
	for i := range comps {
		if _, err := io.ReadFull(br, u16[:]); err != nil {
			return nil, err
		}
		name := make([]byte, binary.LittleEndian.Uint16(u16[:]))
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		comps[i] = string(name)
	}
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint64(u64[:])
	if n > 1<<32 {
		return nil, fmt.Errorf("obs: implausible event count %d", n)
	}
	// n is unverified: a damaged header must cost a short read, not a huge
	// preallocation, so append grows the slice past this cap.
	events := make([]Event, 0, min(n, 1<<16))
	var rec [40]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("obs: event %d: %w", i, err)
		}
		if rec[0] >= byte(numKinds) {
			return nil, fmt.Errorf("obs: event %d: invalid kind %d", i, rec[0])
		}
		ev := Event{
			Kind:    Kind(rec[0]),
			Slot:    int16(binary.LittleEndian.Uint16(rec[3:5])),
			Dur:     binary.LittleEndian.Uint16(rec[5:7]),
			Cycle:   binary.LittleEndian.Uint64(rec[8:16]),
			PC:      binary.LittleEndian.Uint64(rec[16:24]),
			Seq:     binary.LittleEndian.Uint64(rec[24:32]),
			MetaSum: binary.LittleEndian.Uint64(rec[32:40]),
		}
		if ci := binary.LittleEndian.Uint16(rec[1:3]); ci != noComp {
			if int(ci) >= len(comps) {
				return nil, fmt.Errorf("obs: event %d: component index %d out of range", i, ci)
			}
			ev.Comp = comps[ci]
		}
		events = append(events, ev)
	}
	if err := sealed.ExpectEnd(br); err != nil {
		return nil, fmt.Errorf("obs: after event %d: %w", n, err)
	}
	return events, nil
}
