// Package program is the workload substrate: a synthetic program image
// (instructions at addresses, control flow with parameterized dynamic
// behaviours) plus an architectural oracle that produces the committed
// instruction stream.
//
// The paper evaluates on SPECint17 binaries running under FPGA simulation;
// neither SPEC nor an FPGA is available here, so workloads are synthetic
// programs whose *branch populations* — loops with trip counts, global
// pattern branches, data-correlated branches, hard random branches, indirect
// jumps, call/return trees — are shaped per benchmark profile (see
// internal/workloads and DESIGN.md for the substitution rationale).
//
// The split between Program (static image) and Oracle (dynamic truth)
// matters for fidelity: the frontend model fetches from the static image
// along the *predicted* path — including wrong paths — while actual branch
// outcomes exist only on the committed path, exactly as in hardware.
package program

import "fmt"

// Kind classifies an instruction's control-flow role.
type Kind uint8

// Instruction kinds.
const (
	KindOp Kind = iota
	KindBranch
	KindJump
	KindCall
	KindRet
	KindIndirect
)

func (k Kind) String() string {
	switch k {
	case KindOp:
		return "op"
	case KindBranch:
		return "branch"
	case KindJump:
		return "jump"
	case KindCall:
		return "call"
	case KindRet:
		return "ret"
	case KindIndirect:
		return "indirect"
	}
	return "invalid"
}

// IsCFI reports whether the kind redirects control flow.
func (k Kind) IsCFI() bool { return k != KindOp }

// Class is the execution class driving the backend timing model.
type Class uint8

// Execution classes (mapped to the BOOM issue queues of Table II).
const (
	ClassALU Class = iota
	ClassMul
	ClassLoad
	ClassStore
	ClassFP
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassFP:
		return "fp"
	}
	return "invalid"
}

// Inst is one instruction of the synthetic image.
type Inst struct {
	PC     uint64
	Kind   Kind
	Class  Class
	Target uint64 // static target (branch/jump/call); 0 for ret/indirect

	Dir DirBehavior // branches: dynamic direction
	Tgt TgtBehavior // indirect jumps: dynamic target
	Mem MemBehavior // loads/stores: address stream
	Sem SemBehavior // optional computational semantics (interpreted ISAs)

	// Register dataflow for the backend's dependency model (0 = none).
	Dst, Src1, Src2 uint8
}

// Program is a closed static instruction image.
//
// Built-in behaviours keep their per-execution state (loop counters, pattern
// phases) in State slots assigned by Add, so a built Program is immutable:
// any number of concurrent Oracles — and therefore simulations — may share
// one instance.  The exception is interpreted-ISA programs, whose behaviours
// mutate a shared Machine; those set SingleUse and must be rebuilt per
// simulation (the workloads cache honours this).
type Program struct {
	Name      string
	Entry     uint64
	InstBytes int

	// SingleUse marks a program whose behaviours carry mutable state outside
	// State slots (interpreted-ISA machines); such a program supports exactly
	// one architectural execution and must never be shared or cached.
	SingleUse bool

	// The image is dense: insts[k] is the instruction at lo+k*InstBytes,
	// nil in a gap.  Fetch looks up every slot of every packet, so At is one
	// subtraction and one index rather than a map probe.
	insts  []*Inst
	lo     uint64
	n      int
	nSlots int
}

// maxSpan bounds the address range an image may cover, in instruction
// slots, so a stray PC cannot make the dense image allocate gigabytes.
const maxSpan = 1 << 24

// New creates an empty program.
func New(name string, entry uint64, instBytes int) *Program {
	return &Program{Name: name, Entry: entry, InstBytes: instBytes}
}

// Add inserts an instruction.  Duplicate PCs, PCs off the image's
// instruction grid (the first PC added, stepped by InstBytes) and images
// spanning more than maxSpan slots are builder bugs.
func (p *Program) Add(i *Inst) {
	ib := uint64(p.InstBytes)
	if p.insts == nil {
		p.lo = i.PC
	}
	if (i.PC-p.lo)%ib != 0 {
		panic(fmt.Sprintf("program: instruction at %#x is off the %d-byte grid of %#x", i.PC, ib, p.lo))
	}
	lo, end := min(p.lo, i.PC), max(p.lo+uint64(len(p.insts))*ib, i.PC+ib)
	if (end-lo)/ib > maxSpan {
		panic(fmt.Sprintf("program: instruction at %#x stretches the image past %d slots", i.PC, maxSpan))
	}
	if i.PC < p.lo {
		// Grow downwards: re-base the image at the new lowest PC.
		p.insts = append(make([]*Inst, (p.lo-i.PC)/ib), p.insts...)
		p.lo = i.PC
	}
	k := (i.PC - p.lo) / ib
	if n := uint64(len(p.insts)); k >= n {
		p.insts = append(p.insts, make([]*Inst, k+1-n)...)
	}
	if p.insts[k] != nil {
		panic(fmt.Sprintf("program: duplicate instruction at %#x", i.PC))
	}
	p.insts[k] = i
	p.n++
}

// Slots returns how many State cells the program's behaviours use (slot ids
// run 1..n; cell 0 is the shared default for unassigned behaviours).
func (p *Program) Slots() int { return p.nSlots + 1 }

// assignSlots gives every stateful behaviour its State slot, in PC order so
// two builds of the same program assign identically.  A behaviour shared by
// several instructions keeps its first assignment (shared dynamic state,
// matching the semantics it had when the state lived in the struct).
func (p *Program) assignSlots() {
	for _, i := range p.insts {
		if i == nil {
			continue
		}
		for _, b := range []any{i.Dir, i.Tgt, i.Mem, i.Sem} {
			if s, ok := b.(slotted); ok && s.slotID() == 0 {
				p.nSlots++
				s.setSlot(p.nSlots)
			}
		}
	}
}

// At returns the instruction at pc, or nil outside the image (wrong-path
// fetch beyond the program fetches garbage, modelled as nil -> NOP): below
// or past the image, in a gap, or off the instruction grid.
func (p *Program) At(pc uint64) *Inst {
	off := pc - p.lo // wraps to a huge value below the image
	ib := uint64(p.InstBytes)
	if k := off / ib; k < uint64(len(p.insts)) && off%ib == 0 {
		return p.insts[k]
	}
	return nil
}

// Len returns the number of instructions in the image.
func (p *Program) Len() int { return p.n }

// Validate checks the image is closed: every static target exists, every
// branch has a direction behaviour, every indirect a target behaviour.  It
// also assigns State slots to stateful behaviours, finalizing the image:
// after a successful Validate the Program is immutable (unless SingleUse)
// and may be shared across concurrent simulations.
func (p *Program) Validate() error {
	p.assignSlots()
	for _, i := range p.insts {
		if i == nil {
			continue
		}
		pc := i.PC
		switch i.Kind {
		case KindBranch:
			if i.Dir == nil {
				return fmt.Errorf("program %s: branch at %#x has no direction behaviour", p.Name, pc)
			}
			if p.At(i.Target) == nil {
				return fmt.Errorf("program %s: branch at %#x targets %#x outside image", p.Name, pc, i.Target)
			}
		case KindJump, KindCall:
			if p.At(i.Target) == nil {
				return fmt.Errorf("program %s: %s at %#x targets %#x outside image", p.Name, i.Kind, pc, i.Target)
			}
		case KindIndirect:
			if i.Tgt == nil {
				return fmt.Errorf("program %s: indirect at %#x has no target behaviour", p.Name, pc)
			}
		}
		if i.Kind == KindOp || i.Kind == KindBranch {
			// Fall-through successor must exist.
			if p.At(pc+uint64(p.InstBytes)) == nil {
				return fmt.Errorf("program %s: %s at %#x falls through outside image", p.Name, i.Kind, pc)
			}
		}
		if (i.Class == ClassLoad || i.Class == ClassStore) && i.Mem == nil {
			return fmt.Errorf("program %s: memory op at %#x has no address behaviour", p.Name, pc)
		}
	}
	if p.At(p.Entry) == nil {
		return fmt.Errorf("program %s: entry %#x outside image", p.Name, p.Entry)
	}
	return nil
}
