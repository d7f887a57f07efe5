package history

import (
	"cobra/internal/bitutil"
	"cobra/internal/sram"
)

// Local is the PC-indexed local history table (§IV-B.3).  It is updated
// speculatively by predicted directions of in-flight branches and repaired
// by the forwards-walk mechanism: the history file stores each entry's
// pre-update value, and on mispredict the walk writes the oldest squashed
// value back (see compose.HistoryFile).
type Local struct {
	mem      *sram.Mem
	histBits uint
	idxHash  bitutil.Folder // PC above instOff folded to the index width
}

// NewLocal builds a local history table with entries rows of histBits-bit
// histories. entries must be a power of two.
func NewLocal(entries int, histBits, instOff uint) *Local {
	if !bitutil.IsPow2(entries) {
		panic("history: local history entries must be a power of two")
	}
	if histBits == 0 || histBits > 63 {
		panic("history: local history bits must be in [1,63]")
	}
	return &Local{
		mem: sram.New(sram.Spec{
			Name:    "lhist",
			Entries: entries,
			Width:   int(histBits),
			// 1 read (predict) + 1 write (speculative update) per cycle; the
			// repair walk uses the flop-restore path (Poke).
			ReadPorts:  1,
			WritePorts: 1,
		}),
		histBits: histBits,
		idxHash:  bitutil.NewFolder(instOff, bitutil.Clog2(entries)),
	}
}

func (l *Local) index(pc uint64) int {
	return int(l.idxHash.Fold(pc))
}

// Read returns the local history for pc (consumes a read port).
func (l *Local) Read(pc uint64) uint64 {
	return l.mem.Read(l.index(pc))
}

// SpecUpdate speculatively shifts taken into pc's history and returns the
// pre-update value, which the caller must stash in the history file for the
// repair walk.
func (l *Local) SpecUpdate(pc uint64, taken bool) (old uint64) {
	idx := l.index(pc)
	old = l.mem.Peek(idx)
	next := old << 1
	if taken {
		next |= 1
	}
	l.mem.Write(idx, next) // Write masks to histBits.
	return old
}

// Restore writes a previously captured history value back (repair path,
// modelled as flop restore: no port consumed).
func (l *Local) Restore(pc uint64, val uint64) {
	l.mem.Poke(l.index(pc), val)
}

// Tick advances the backing memory's port accounting.
func (l *Local) Tick(cycle uint64) { l.mem.Tick(cycle) }

// Mems exposes the backing memory (port accounting, energy).
func (l *Local) Mems() []*sram.Mem { return []*sram.Mem{l.mem} }

// Reset clears the table.
func (l *Local) Reset() { l.mem.Reset() }

// Budget reports the table's storage.
func (l *Local) Budget() sram.Budget {
	return sram.Budget{Mems: []sram.Spec{l.mem.Spec()}}
}

// Path is a path-history register: it shifts in low bits of the targets of
// taken control flow, the variant of history information the paper cites
// ([33]) as implementable as a new history provider.
type Path struct {
	length uint
	reg    uint64
}

// NewPath returns a path history of length bits (<= 64).
func NewPath(length uint) *Path {
	if length == 0 || length > 64 {
		panic("history: path history length must be in [1,64]")
	}
	return &Path{length: length}
}

// Shift inserts the low bit group of a taken-branch target.
func (p *Path) Shift(target uint64, instOff uint) {
	p.reg = (p.reg << 1) | ((target >> instOff) & 1)
	p.reg &= bitutil.Mask(p.length)
}

// Bits returns the register value.
func (p *Path) Bits() uint64 { return p.reg }

// Snapshot returns the register for history-file storage.
func (p *Path) Snapshot() uint64 { return p.reg }

// Restore rewinds the register.
func (p *Path) Restore(v uint64) { p.reg = v & bitutil.Mask(p.length) }

// Reset clears the register.
func (p *Path) Reset() { p.reg = 0 }

// Budget reports the flop cost.
func (p *Path) Budget() sram.Budget { return sram.Budget{FlopBits: int(p.length)} }
