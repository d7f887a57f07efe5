package components

import (
	"cobra/internal/bitutil"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// BTB is the large set-associative branch target buffer (§III-G.2).  Each
// set covers a whole fetch packet: per slot it stores a CFI kind and a
// target, banked one SRAM per slot so the packet reads out in one cycle
// (the superscalar organization of §III-C).  The hit way is recovered at
// update time from the metadata field — exactly the use case the paper
// calls out for enabling set-associativity without extra read ports.
//
// A BTB provides targets (and, for unconditional jumps, a taken direction);
// for conditional branches it augments whatever direction arrives on
// predict_in, passing the direction through untouched (Fig. 3).
type BTB struct {
	component
	sets int
	ways int

	// Index and tag fields, fixed at construction.
	idxHash  bitutil.Folder // packet PC folded to idxBits
	tagShift uint           // PC bits below the tag: packet offset + idxBits
	tagMask  uint64         // Mask(tagBits)

	// Views of the component's memory list: the tags first, then the banks.
	tags  []*sram.Mem // one per way: valid + tag
	banks []*sram.Mem // [way*FetchWidth + slot]: kind(3) + target(btbTargetBits)
	repl  []uint8     // round-robin allocation pointer per set
}

// CFI kinds stored in BTB entries.
const (
	btbKindNone = iota
	btbKindBranch
	btbKindJump
	btbKindCall
	btbKindRet
	btbKindIndirect
)

// btbTargetBits is the stored target width.  Like the BOOM BTB, entries
// store a sign-extended instruction-granular offset relative to the fetch
// packet base rather than a full virtual address — targets beyond the
// offset range alias and self-correct through mispredicts, a real partial-
// target artifact.
const btbTargetBits = 21

// BTBParams configures a BTB instance.
type BTBParams struct {
	Name    string
	ID      pred.Provider // pipeline-scoped provider ID (components.Env.ID)
	Latency int
	Entries int // total packet entries (sets * ways)
	Ways    int
	TagBits uint
}

// NewBTB builds a set-associative BTB.
func NewBTB(cfg pred.Config, p BTBParams) *BTB {
	if p.Ways <= 0 {
		p.Ways = 4
	}
	if p.Entries%p.Ways != 0 {
		panic("components: BTB entries must divide evenly into ways")
	}
	sets := p.Entries / p.Ways
	if !bitutil.IsPow2(sets) {
		panic("components: BTB sets must be a power of two")
	}
	if p.TagBits == 0 {
		p.TagBits = 20
	}
	if p.Latency < 1 {
		p.Latency = 2
	}
	idxBits := bitutil.Clog2(sets)
	b := &BTB{
		// One metadata word: hit flag | way<<1.
		component: newComponent(cfg, p.Name, p.ID, p.Latency, p.Ways*(1+cfg.FetchWidth), 1),
		sets:      sets,
		ways:      p.Ways,
		idxHash:   bitutil.NewFolder(cfg.PktOff(), idxBits),
		tagShift:  cfg.PktOff() + idxBits,
		tagMask:   bitutil.Mask(p.TagBits),
		repl:      make([]uint8, sets),
	}
	for w := 0; w < p.Ways; w++ {
		b.newMem(sram.Spec{
			Name:       p.Name + "_tag",
			Entries:    sets,
			Width:      int(p.TagBits) + 1, // +valid
			ReadPorts:  1,
			WritePorts: 1,
		})
	}
	for i := 0; i < p.Ways*cfg.FetchWidth; i++ {
		b.newMem(sram.Spec{
			Name:       p.Name + "_tgt",
			Entries:    sets,
			Width:      3 + btbTargetBits,
			ReadPorts:  1,
			WritePorts: 1,
		})
	}
	b.tags, b.banks = b.mems[:p.Ways:p.Ways], b.mems[p.Ways:]
	return b
}

func (b *BTB) index(pc uint64) int {
	return int(b.idxHash.Fold(pc))
}

func (b *BTB) tag(pc uint64) uint64 {
	return pc >> b.tagShift & b.tagMask
}

func (b *BTB) bank(way, slot int) *sram.Mem {
	return b.banks[way*b.cfg.FetchWidth+slot]
}

// unpack reconstructs a target from the stored offset and the fetch packet
// base the entry is being read for.
func (b *BTB) unpack(base uint64, field uint64) (kind int, target uint64) {
	kind = int(field & 7)
	off := int64(field>>3) << (64 - btbTargetBits) >> (64 - btbTargetBits) // sign-extend
	target = uint64(int64(b.cfg.PacketBase(base)) + off<<b.cfg.InstOff())
	return kind, target
}

func (b *BTB) pack(base uint64, kind int, target uint64) uint64 {
	off := (int64(target) - int64(b.cfg.PacketBase(base))) >> b.cfg.InstOff()
	return uint64(kind)&7 | (uint64(off)&bitutil.Mask(btbTargetBits))<<3
}

func btbKindToPred(kind int) pred.CFIKind {
	switch kind {
	case btbKindBranch:
		return pred.KindBranch
	case btbKindJump:
		return pred.KindJump
	case btbKindCall:
		return pred.KindCall
	case btbKindRet:
		return pred.KindRet
	case btbKindIndirect:
		return pred.KindIndirect
	}
	return pred.KindNone
}

// lookup probes all ways of set idx (b.index(pc)); returns hit way or -1.
func (b *BTB) lookup(idx int, pc uint64) int {
	tag := b.tag(pc)
	for w := 0; w < b.ways; w++ {
		t := b.tags[w].Read(idx)
		if t&1 == 1 && t>>1 == tag {
			return w
		}
	}
	return -1
}

// Predict implements pred.Subcomponent.  It writes every overlay slot
// (the zero Pred passes through) and its metadata word.
func (b *BTB) Predict(q *pred.Query) pred.Response {
	idx := b.index(q.PC)
	way := b.lookup(idx, q.PC)
	overlay, meta := b.response()
	readWay := way
	if readWay < 0 {
		readWay = 0 // the RTL reads data in parallel with tags; model the port
	}
	for i := range overlay {
		field := b.bank(readWay, i).Read(idx)
		kind, target := btbKindNone, uint64(0)
		if way >= 0 {
			kind, target = b.unpack(q.PC, field)
		}
		var p pred.Pred // a miss or an empty slot passes through
		if kind != btbKindNone {
			p = pred.Pred{
				TgtValid:    true,
				Target:      target,
				TgtProvider: b.id,
				IsCFI:       true,
				Kind:        btbKindToPred(kind),
			}
			// Unconditional control flow is always taken; the BTB can
			// assert that.  Conditional branches keep the incoming
			// direction.
			if kind != btbKindBranch {
				p.DirValid = true
				p.Taken = true
				p.DirProvider = b.id
			}
		}
		overlay[i] = p
	}
	// hit flag | way<<1; a miss is 0.
	meta[0] = 0
	if way >= 0 {
		meta[0] = 1 | uint64(way)<<1
	}
	return pred.Response{Overlay: overlay, Meta: meta}
}

// Update implements pred.Subcomponent: learn targets of committed taken
// CFIs.  The metadata recovers the predict-time hit way; a miss allocates a
// way round-robin.
func (b *BTB) Update(e *pred.Event) {
	idx, tag := b.index(e.PC), b.tag(e.PC)
	anyTaken := false
	for i := range e.Slots {
		s := &e.Slots[i]
		if s.Valid && s.Taken && (s.IsBranch || s.IsJump || s.IsCall || s.IsRet || s.IsIndir) {
			anyTaken = true
		}
	}
	hit := e.Meta[0]&1 == 1
	way := int(e.Meta[0] >> 1)
	if hit && way < b.ways {
		// The way may have been re-allocated between predict and commit.
		t := b.tags[way].Read(idx)
		if t&1 != 1 || t>>1 != tag {
			hit = false
		}
	} else {
		hit = false
	}
	if !hit {
		// Allocate only for packets with taken control flow: a never-taken
		// branch has nothing useful to store and would pollute the set.
		if !anyTaken {
			return
		}
		way = int(b.repl[idx]) % b.ways
		b.repl[idx]++
		b.tags[way].Write(idx, tag<<1|1)
		for s := 0; s < b.cfg.FetchWidth; s++ {
			b.bank(way, s).Poke(idx, 0)
		}
	}
	for i := range e.Slots {
		s := &e.Slots[i]
		if !s.Valid || i >= b.cfg.FetchWidth {
			continue
		}
		kind := btbKindNone
		switch {
		case s.IsRet:
			kind = btbKindRet
		case s.IsCall:
			kind = btbKindCall
		case s.IsIndir:
			kind = btbKindIndirect
		case s.IsJump:
			kind = btbKindJump
		case s.IsBranch:
			kind = btbKindBranch
		}
		if kind == btbKindNone {
			continue
		}
		bank := b.bank(way, i)
		if s.Taken {
			bank.Write(idx, b.pack(e.PC, kind, s.Target))
		} else {
			// Record the kind but keep any previously learned target.
			_, old := b.unpack(e.PC, bank.Peek(idx))
			bank.Write(idx, b.pack(e.PC, kind, old))
		}
	}
}

// Mispredict gives the BTB a fast path to learn a corrected target.
func (b *BTB) Mispredict(e *pred.Event) { b.Update(e) }

// Reset implements pred.Subcomponent.
func (b *BTB) Reset() {
	b.component.Reset()
	for i := range b.repl {
		b.repl[i] = 0
	}
}

// Budget implements pred.Subcomponent: the memories plus the replacement
// pointers.
func (b *BTB) Budget() sram.Budget {
	bg := b.component.Budget()
	bg.FlopBits = len(b.repl) * 8
	return bg
}

var _ pred.Subcomponent = (*BTB)(nil)
