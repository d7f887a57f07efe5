// Package pred defines the COBRA predictor sub-component interface (§III of
// the paper): the prediction packet types, the five prediction events
// (predict, fire, mispredict, repair, update), the opaque metadata contract,
// and the Subcomponent interface every library component implements.
//
// Interface obligations reproduced from the paper:
//
//   - Prediction begins when the sub-component receives the fetch PC at
//     cycle 0; a response may come at any cycle p >= 1 (§III-A).  In this
//     model a component declares Latency() = p and its Predict result takes
//     effect at that stage; the composer enforces the "same or more powerful
//     prediction for all d > p" rule by pinning the component's overlay from
//     stage p onward (monotone refinement).
//   - Global and local histories are provided only at the end of the first
//     cycle (§III-B, Fig. 2), so a latency-1 component must not read them;
//     the composer passes zeroed history to latency-1 components and the
//     conformance suite checks the library honours this.
//   - A sub-component outputs a vector of predictions for the whole fetch
//     packet (§III-C); single-prediction components fill one slot.
//   - Each component declares the metadata it wants to store (MetaWords);
//     whatever it returns from Predict is handed back verbatim at fire,
//     mispredict, repair, and update time (§III-D/E).
//   - predict_in (§III-F): a component receives the stage-p outputs of its
//     input nodes and may pass them through, override fields, or arbitrate
//     among several inputs.
package pred

import (
	"fmt"

	"cobra/internal/sram"
)

// CFIKind is a tagged predictor's belief about what control-flow
// instruction a slot holds (BTBs learn this alongside the target).
type CFIKind uint8

// CFI kinds a predictor can hint.
const (
	KindNone CFIKind = iota
	KindBranch
	KindJump
	KindCall
	KindRet
	KindIndirect
)

func (k CFIKind) String() string {
	switch k {
	case KindNone:
		return "none"
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

// Pred is the prediction for one instruction slot of a fetch packet.  The
// zero value means "no prediction" (pure pass-through).  A component
// overrides only the field groups it has an opinion about: direction
// (DirValid+Taken) and/or target (TgtValid+Target), mirroring Fig. 3's BTB
// that augments an incoming direction with a target.
type Pred struct {
	DirValid bool
	Taken    bool

	TgtValid bool
	Target   uint64

	// IsCFI marks that the predictor believes this slot holds a
	// control-flow instruction (a BTB hit implies this even when only the
	// target is provided); Kind refines the belief when known.
	IsCFI bool
	Kind  CFIKind

	// DirProvider / TgtProvider identify the sub-component whose opinion
	// each field group carries — attribution for Fig. 8-style provider
	// stats and for the tournament's selector update.
	DirProvider Provider
	TgtProvider Provider
}

// Provider identifies a sub-component within one predictor pipeline: the
// composer numbers the topology's nodes 1..n in topological order and hands
// each component its number at construction (compose.Pipeline.ProviderName
// turns it back into the node's name).  The zero value means no component —
// a slot nobody predicted.  Keeping the ID a small integer instead of a name
// leaves Pred pointer-free, so packets copy without write barriers.
type Provider uint16

// OverlayOn returns base with p's valid field groups overriding it.
func (p Pred) OverlayOn(base Pred) Pred {
	out := base
	if p.DirValid {
		out.DirValid = true
		out.Taken = p.Taken
		out.DirProvider = p.DirProvider
	}
	if p.TgtValid {
		out.TgtValid = true
		out.Target = p.Target
		out.TgtProvider = p.TgtProvider
	}
	if p.IsCFI {
		out.IsCFI = true
	}
	if p.Kind != KindNone {
		out.Kind = p.Kind
	}
	return out
}

// Packet is a full fetch packet's worth of per-slot predictions.
type Packet []Pred

// Clone returns a copy of the packet.
func (pk Packet) Clone() Packet {
	out := make(Packet, len(pk))
	copy(out, pk)
	return out
}

// OverlayOn applies each slot of pk over base, returning a new packet.
func (pk Packet) OverlayOn(base Packet) Packet {
	out := make(Packet, len(pk))
	for i := range pk {
		var b Pred
		if i < len(base) {
			b = base[i]
		}
		out[i] = pk[i].OverlayOn(b)
	}
	return out
}

// Query carries everything a sub-component may consult at predict time.
type Query struct {
	Cycle uint64
	PC    uint64 // fetch packet base PC

	// Histories (end-of-Fetch-1 values; zero for latency-1 components).
	GHist uint64   // low 64 bits of global history, most recent in bit 0
	GRaw  []uint64 // full global history words (long-history components)
	LHist uint64   // local history for this PC
	Path  uint64   // path history

	// In holds the predict_in packets, one per input edge of the topology,
	// evaluated at this component's response stage.
	In []Packet
}

// Response is a component's answer: an overlay packet (zero slots pass
// through) plus the metadata to round-trip through the history file.
type Response struct {
	Overlay Packet
	Meta    []uint64
}

// SlotInfo is the per-slot resolution/speculation record handed to the
// fire/mispredict/repair/update events.
type SlotInfo struct {
	Valid bool   // slot held a (committed or speculatively fetched) CFI
	PC    uint64 // the instruction's own PC

	IsBranch bool // conditional branch
	IsJump   bool // unconditional direct jump
	IsCall   bool
	IsRet    bool
	IsIndir  bool // indirect target

	Taken     bool   // resolved direction (update/mispredict/repair); predicted direction for fire
	PredTaken bool   // the direction the final pipeline predicted
	Target    uint64 // resolved target (update/mispredict); predicted for fire

	Mispredicted bool // this slot is the offending branch (mispredict event)
}

// Event is the payload of the four non-predict signals.  Per §III-E, the
// same fetch PC and histories provided at predict time come back, along with
// the component's own metadata, so indices and read data can be regenerated
// without extra ports.
type Event struct {
	Cycle uint64
	PC    uint64 // fetch packet base PC of the original prediction

	GHist uint64
	GRaw  []uint64
	LHist uint64
	Path  uint64

	Meta  []uint64 // this component's predict-time metadata (may be nil if it declared 0 words)
	Slots []SlotInfo
}

// BranchSlot returns the first valid conditional-branch slot, or -1.
func (e *Event) BranchSlot() int {
	for i := range e.Slots {
		if e.Slots[i].Valid && e.Slots[i].IsBranch {
			return i
		}
	}
	return -1
}

// Subcomponent is the COBRA sub-component interface.  Implementations are
// sequential hardware models: Predict must not mutate prediction state
// (reads may be counted against SRAM ports); all learning happens in the
// event methods.  Storage is part of the contract: Mems lists every SRAM
// the component owns, and a decorator must forward it (and
// UsesLocalHistory) to the component it wraps.
type Subcomponent interface {
	// Name identifies the component instance in topologies and reports.
	Name() string
	// Latency is the response stage p >= 1 (§III-A).
	Latency() int
	// MetaWords is the length of the metadata slice the component returns
	// from Predict and receives back in events (§III-D).
	MetaWords() int
	// NumInputs is how many predict_in edges the component requires
	// (0 for leaves, 1 for augmenting/overriding components, 2+ for
	// arbitration schemes such as the tournament selector, §III-F).
	NumInputs() int
	// UsesLocalHistory reports whether the composer must generate a local
	// history provider for the component (§IV-B.3).
	UsesLocalHistory() bool

	// Predict is the predict signal: begin generating a prediction for the
	// fetch PC in q.  The returned overlay takes effect at stage Latency().
	Predict(q *Query) Response

	// Fire speculatively updates local state for a prior predict PC.
	Fire(e *Event)
	// Mispredict is the fast, immediate update on a mispredicted branch.
	Mispredict(e *Event)
	// Repair restores misspeculated local state for a given predict PC.
	Repair(e *Event)
	// Update is the slow commit-time update from a committing branch.
	Update(e *Event)

	// Reset returns the component to power-on state.
	Reset()
	// Mems returns every SRAM the component owns, in a fixed order (nil
	// for flop-based components).  compose.New attaches them to the
	// pipeline's clock and the energy model reads their access counters,
	// so a memory missing here escapes port accounting.
	Mems() []*sram.Mem
	// Tick advances the SRAM port accounting of a component driven on its
	// own (unit tests, harnesses) to the given cycle.  The composer does
	// not call it: the pipeline clock reaches every memory listed by Mems.
	// The method stays because the benchmark's component wrapper forwards
	// it; removing it waits for a change to the benchmark.
	Tick(cycle uint64)
	// Budget reports the component's storage for the area model.
	Budget() sram.Budget
}

// Validate checks basic interface-contract conformance of a component
// (sane latency, metadata declaration, input arity) and returns an error
// describing the first violation.  The full behavioural conformance suite
// lives in the components package tests.
func Validate(s Subcomponent) error {
	if s.Name() == "" {
		return fmt.Errorf("pred: component has empty name")
	}
	if s.Latency() < 1 {
		return fmt.Errorf("pred: %s declares latency %d; interface requires p >= 1", s.Name(), s.Latency())
	}
	if s.MetaWords() < 0 {
		return fmt.Errorf("pred: %s declares negative metadata length", s.Name())
	}
	if s.NumInputs() < 0 {
		return fmt.Errorf("pred: %s declares negative input arity", s.Name())
	}
	return nil
}
