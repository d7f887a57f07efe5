// Package sram models the synchronous memories backing predictor
// sub-components.
//
// The paper stresses (§III-D) that predictor structures ought to be
// implemented as area-efficient single- or dual-ported SRAMs, and that the
// metadata field exists partly to avoid a second read port at update time.
// This package gives every table an explicit Spec (entries × width × ports)
// so that:
//
//   - port discipline can be *checked*: a Mem panics if a cycle issues more
//     reads or writes than the spec allows (catching designs that silently
//     assume extra ports — precisely the modelling error a software-only
//     simulator hides);
//   - storage and area roll up mechanically into the Fig. 8/9 area model
//     (package internal/area) from the same parameters the RTL would use.
//
// Port use is counted per clock tick.  A Mem reads its tick from a clock
// word: its own, which Tick advances, or one shared by every memory of a
// composed pipeline (Attach), which the pipeline advances once per cycle.
// Read and Write compare the word with the tick they last saw and restart
// the per-cycle counts when it has moved, so advancing the clock costs one
// store however many memories share it.  Row counts are powers of two, as
// the RTL's index bits imply, and rows are addressed by masking the index.
package sram

import (
	"fmt"

	"cobra/internal/bitutil"
)

// Spec describes one synchronous memory.
type Spec struct {
	Name       string
	Entries    int // number of rows
	Width      int // bits per row
	ReadPorts  int
	WritePorts int
}

// Bits returns the total storage in bits.
func (s Spec) Bits() int { return s.Entries * s.Width }

// Bytes returns the total storage in bytes (rounded up).
func (s Spec) Bytes() int { return (s.Bits() + 7) / 8 }

func (s Spec) String() string {
	return fmt.Sprintf("%s: %dx%db (%dR%dW)", s.Name, s.Entries, s.Width, s.ReadPorts, s.WritePorts)
}

// Budget is the storage accounting a sub-component reports: the memories it
// instantiates plus any flop-based state (history registers, valid bits kept
// out of SRAM, ...).
type Budget struct {
	Mems     []Spec
	FlopBits int
}

// TotalBits returns SRAM bits plus flop bits.
func (b Budget) TotalBits() int {
	n := b.FlopBits
	for _, m := range b.Mems {
		n += m.Bits()
	}
	return n
}

// TotalBytes returns the budget in bytes (rounded up).
func (b Budget) TotalBytes() int { return (b.TotalBits() + 7) / 8 }

// Add merges another budget into b and returns the result.
func (b Budget) Add(o Budget) Budget {
	return Budget{
		Mems:     append(append([]Spec{}, b.Mems...), o.Mems...),
		FlopBits: b.FlopBits + o.FlopBits,
	}
}

// Mem is a cycle-accounted memory of uint64 rows. Rows wider than 64 bits
// are modelled as multiple Mems or by packing; predictor entries in this
// code base always fit one word per logical field.
type Mem struct {
	spec   Spec
	rows   []uint64
	mask   int     // Entries-1: rows are addressed by idx & mask
	wmask  uint64  // low Width bits: what a row stores of a written value
	clock  *uint64 // the tick port use is counted in: &own, or an attached clock
	seen   uint64  // *clock when reads/writes were last restarted
	reads  int
	writes int

	// own is the clock of a memory no pipeline is attached to; last is the
	// cycle Tick last saw, so that Tick advances own only on a new cycle.
	own  uint64
	last uint64

	// Stats for the energy/port-pressure report.
	TotalReads  uint64
	TotalWrites uint64
	// CheckPorts enables per-cycle port-overuse panics.  Off by default (the
	// full-core simulator folds multiple pipeline events into one host call);
	// unit tests and the strict composer mode enable it to audit designs.
	CheckPorts bool

	// MaxReadsPerCycle / MaxWritesPerCycle record the worst observed port
	// pressure regardless of CheckPorts, so reports can flag designs that
	// would need more ports than their spec claims.
	MaxReadsPerCycle  int
	MaxWritesPerCycle int
}

// New allocates a memory conforming to spec.  Entries must be a power of
// two.
func New(spec Spec) *Mem {
	if !bitutil.IsPow2(spec.Entries) || spec.Width <= 0 {
		panic(fmt.Sprintf("sram: invalid spec %v (entries must be a power of two)", spec))
	}
	m := &Mem{spec: spec, rows: make([]uint64, spec.Entries), mask: spec.Entries - 1,
		wmask: bitutil.Mask(uint(spec.Width))}
	m.clock = &m.own
	return m
}

// Spec returns the memory's specification.
func (m *Mem) Spec() Spec { return m.spec }

// Attach makes the memory count port use against clock instead of its own
// Tick: every change of *clock starts a new cycle.  A composed pipeline
// attaches all its memories to one clock word, which it increments on each
// new cycle, so per-cycle accounting needs no per-memory call.
func (m *Mem) Attach(clock *uint64) {
	m.clock = clock
	m.seen = *clock
}

// Tick advances the memory's own clock to a new cycle, resetting port
// usage.  It has no effect on a memory attached to a shared clock.
func (m *Mem) Tick(cycle uint64) {
	if cycle != m.last {
		m.last = cycle
		m.own++
	}
}

// sync restarts the per-cycle port counts if the clock moved since the
// last access.
func (m *Mem) sync() {
	if c := *m.clock; c != m.seen {
		m.seen = c
		m.reads, m.writes = 0, 0
	}
}

// Read returns row idx, consuming one read port in the current cycle.
func (m *Mem) Read(idx int) uint64 {
	m.sync()
	m.reads++
	m.TotalReads++
	if m.reads > m.MaxReadsPerCycle {
		m.MaxReadsPerCycle = m.reads
	}
	if m.CheckPorts && m.reads > m.spec.ReadPorts {
		panic(fmt.Sprintf("sram: %s exceeded %d read ports in one cycle", m.spec.Name, m.spec.ReadPorts))
	}
	return m.rows[idx&m.mask]
}

// Write stores v (masked to the row width) at row idx, consuming one write
// port in the current cycle.
func (m *Mem) Write(idx int, v uint64) {
	m.sync()
	m.writes++
	m.TotalWrites++
	if m.writes > m.MaxWritesPerCycle {
		m.MaxWritesPerCycle = m.writes
	}
	if m.CheckPorts && m.writes > m.spec.WritePorts {
		panic(fmt.Sprintf("sram: %s exceeded %d write ports in one cycle", m.spec.Name, m.spec.WritePorts))
	}
	m.rows[idx&m.mask] = v & m.wmask
}

// Peek reads row idx without consuming a port (for tests and debug dumps).
func (m *Mem) Peek(idx int) uint64 { return m.rows[idx&m.mask] }

// Poke writes row idx without consuming a port (for tests and repair paths
// that model flop-based restore).
func (m *Mem) Poke(idx int, v uint64) {
	m.rows[idx&m.mask] = v & m.wmask
}

// Reset zeroes the memory contents and statistics.
func (m *Mem) Reset() {
	for i := range m.rows {
		m.rows[i] = 0
	}
	m.reads, m.writes = 0, 0
	m.TotalReads, m.TotalWrites = 0, 0
	m.MaxReadsPerCycle, m.MaxWritesPerCycle = 0, 0
}
