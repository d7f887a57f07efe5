package program

import "fmt"

// Step is one committed instruction with its architectural truth.
type Step struct {
	Inst   *Inst
	PC     uint64
	Taken  bool   // CFI direction (true for unconditional taken flow)
	Target uint64 // actual control-flow target when Taken
	NextPC uint64 // architectural successor
	Addr   uint64 // effective address for memory ops
}

// Oracle executes a program architecturally, producing the committed
// instruction stream the timing model is measured against.  The frontend
// never consults the oracle for predictions; it only aligns delivered
// instructions against this stream to classify correct- vs wrong-path
// fetch (see internal/uarch).
type Oracle struct {
	prog  *Program
	st    *State
	pc    uint64
	stack []uint64 // architectural call stack (for KindRet)
	count uint64
}

// NewOracle starts architectural execution at the program entry.
func NewOracle(p *Program, seed uint64) *Oracle {
	st := NewState(seed)
	st.grow(p.Slots())
	return &Oracle{prog: p, st: st, pc: p.Entry}
}

// State exposes the architectural state (behaviours share it).
func (o *Oracle) State() *State { return o.st }

// PC returns the next instruction's address.
func (o *Oracle) PC() uint64 { return o.pc }

// Count returns how many instructions have been executed.
func (o *Oracle) Count() uint64 { return o.count }

// Next executes one instruction and writes its Step into *s, every field,
// so a caller can reuse one Step (or a ring slot of them) for every call.
func (o *Oracle) Next(s *Step) {
	inst := o.prog.At(o.pc)
	if inst == nil {
		panic(fmt.Sprintf("program %s: architectural execution fell off the image at %#x",
			o.prog.Name, o.pc))
	}
	fall := o.pc + uint64(o.prog.InstBytes)
	if inst.Sem != nil {
		// Computational semantics run before control flow is decided (a
		// branch's own condition is evaluated by its Dir behaviour).
		inst.Sem.Exec(o.st)
	}
	taken, target := false, uint64(0)
	switch inst.Kind {
	case KindBranch:
		taken = inst.Dir.Next(o.st)
		o.st.Record(taken)
		if taken {
			target = inst.Target
		}
	case KindJump:
		taken, target = true, inst.Target
	case KindCall:
		taken, target = true, inst.Target
		o.stack = append(o.stack, fall)
	case KindRet:
		if len(o.stack) == 0 {
			panic(fmt.Sprintf("program %s: return with empty call stack at %#x", o.prog.Name, o.pc))
		}
		taken, target = true, o.stack[len(o.stack)-1]
		o.stack = o.stack[:len(o.stack)-1]
	case KindIndirect:
		taken, target = true, inst.Tgt.NextTarget(o.st)
	}
	next := fall
	if taken {
		next = target
	}
	var addr uint64
	if inst.Mem != nil {
		addr = inst.Mem.NextAddr(o.st)
	}
	*s = Step{Inst: inst, PC: o.pc, Taken: taken, Target: target, NextPC: next, Addr: addr}
	o.count++
	o.pc = next
}
