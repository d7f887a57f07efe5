package uarch

import (
	"cobra/internal/components"
	"cobra/internal/compose"
	"cobra/internal/pred"
	"cobra/internal/program"
)

// pkt is one in-flight fetch packet travelling down the fetch pipeline.
type pkt struct {
	e      *compose.Entry
	stages []pred.Packet
	base   uint64
	start  int // first valid slot (branch targets can land mid-packet)

	view   pred.Packet // currently accepted view
	slots  []pred.SlotInfo
	cfiIdx int
	nextPC uint64

	age        int
	born       uint64 // fetch cycle (aging starts the following cycle)
	predecoded bool
	// predecode results (cached so fetch-buffer backpressure retries do not
	// redo RAS operations)
	endSlot  int
	predMask uint32
}

// fbInst is the front-end half of an in-flight record: what deliver knows
// of an instruction as it enters the fetch buffer.
type fbInst struct {
	seq      uint64
	pc       uint64
	inst     *program.Inst // nil = off-image wrong-path garbage (nop)
	entry    *compose.Entry
	entrySeq uint64
	slot     int

	// stepIdx names a correct-path instruction's oracle step, read in place
	// with steps.at: the window keeps it until the instruction commits.
	stepIdx uint64
	correct bool // on the committed (oracle) path

	predicated bool // SFB branch decoded to set-flag (not a predicted CFI)
	predOff    bool // SFB shadow instruction, architecturally skipped
}

// stepBuffer windows the oracle's committed stream so fetch can rewind after
// a mispredict (flushed correct-path instructions are refetched and must be
// served the same architectural steps).  The window [base, end) lives in a
// power-of-two ring, step i at ring[i&mask], which doubles when full; pruning
// committed steps only advances base.  The oracle writes each step straight
// into its ring slot, and in-flight instructions read it there by index:
// every live instruction's step stays in the window until commit prunes
// past it or a flush rewinds the cursor to before it.
type stepBuffer struct {
	oracle *program.Oracle
	ring   []program.Step
	mask   uint64
	base   uint64 // oldest retained step
	end    uint64 // one past the newest step drawn from the oracle
	cursor uint64 // next step to deliver
}

// stepRingMin is the ring's first allocation; it doubles from there.
const stepRingMin = 64

func newStepBuffer(o *program.Oracle) *stepBuffer {
	return &stepBuffer{oracle: o}
}

// peek returns the step at the cursor, drawing it from the oracle if needed.
// The pointer is valid until the next peek.
func (s *stepBuffer) peek() *program.Step {
	for s.cursor >= s.end {
		if s.end-s.base == uint64(len(s.ring)) {
			s.grow()
		}
		s.oracle.Next(&s.ring[s.end&s.mask])
		s.end++
	}
	return &s.ring[s.cursor&s.mask]
}

// at returns step idx, which must lie in the window.  The pointer is valid
// until the next peek.
func (s *stepBuffer) at(idx uint64) *program.Step { return &s.ring[idx&s.mask] }

// grow doubles the ring, moving the window [base, end) to its new slots.
func (s *stepBuffer) grow() {
	n := max(2*len(s.ring), stepRingMin)
	ring := make([]program.Step, n)
	for i := s.base; i < s.end; i++ {
		ring[i&uint64(n-1)] = s.ring[i&s.mask]
	}
	s.ring, s.mask = ring, uint64(n-1)
}

func (s *stepBuffer) consume() uint64 {
	idx := s.cursor
	s.cursor++
	return idx
}

func (s *stepBuffer) rewind(to uint64) {
	if to < s.base {
		panic("uarch: rewinding past pruned steps")
	}
	s.cursor = to
}

// prune drops steps older than idx (they have committed).
func (s *stepBuffer) prune(idx uint64) {
	s.base = max(s.base, min(idx, s.end))
}

type rasCp struct {
	entrySeq uint64
	opSlot   int // packet slot of the call/ret this checkpoint precedes
	cp       components.RASCheckpoint
}

// scratchSlots returns the shared viewDecode destination buffer, allocating
// it on first use.  Never referenced by an in-flight packet: installing a
// scratch-built view into a packet swaps the two buffers.
func (c *Core) scratchSlots() []pred.SlotInfo {
	if c.vdScratch == nil {
		c.vdScratch = make([]pred.SlotInfo, c.cfg.Fetch.FetchWidth)
	}
	return c.vdScratch
}

// newSlots returns a fetch-width slot vector, recycling freed ones; the
// caller overwrites every slot (viewDecode does).
func (c *Core) newSlots() []pred.SlotInfo {
	if k := len(c.slotsFree); k > 0 {
		s := c.slotsFree[k-1]
		c.slotsFree = c.slotsFree[:k-1]
		return s
	}
	return make([]pred.SlotInfo, c.cfg.Fetch.FetchWidth)
}

// newPkt returns a zero packet: one from the freelist (freePkt zeroed it)
// or a fresh one.
func (c *Core) newPkt() *pkt {
	if k := len(c.pktFree); k > 0 {
		pk := c.pktFree[k-1]
		c.pktFree = c.pktFree[:k-1]
		return pk
	}
	return &pkt{}
}

// freePkt recycles a packet that left the in-flight window, reclaiming its
// slot vector.  The compose entry and stage buffers it referenced are owned
// by the history file, not the packet.
func (c *Core) freePkt(pk *pkt) {
	if pk.slots != nil {
		c.slotsFree = append(c.slotsFree, pk.slots)
	}
	*pk = pkt{}
	c.pktFree = append(c.pktFree, pk)
}

// viewDecode extracts the frontend's working view from a prediction packet
// into the caller-provided slot vector, writing each slot once (zero where
// the view holds no control flow, before start and after a taken CFI):
// per-slot speculation records for branch slots the predictor knows about,
// the packet-ending CFI, and the next fetch PC.  A taken prediction without
// a target cannot redirect (the redirect waits for pre-decode).
func (c *Core) viewDecode(base uint64, start int, v pred.Packet, slots []pred.SlotInfo) (cfi int, next uint64) {
	w := c.cfg.Fetch.FetchWidth
	ib := uint64(c.cfg.Fetch.InstBytes)
	slots = slots[:w]
	cfi = -1
	next = base + uint64(c.cfg.Fetch.PktBytes())
	i := 0
	for ; i < start; i++ {
		slots[i] = pred.SlotInfo{}
	}
	for ; i < w; i++ {
		p := &v[i]
		spc := base + uint64(i)*ib
		switch p.Kind {
		case pred.KindBranch:
			slots[i] = pred.SlotInfo{Valid: true, IsBranch: true, PC: spc,
				Taken: p.DirValid && p.Taken}
		case pred.KindJump:
			slots[i] = pred.SlotInfo{Valid: true, IsJump: true, PC: spc, Taken: true}
		case pred.KindCall:
			slots[i] = pred.SlotInfo{Valid: true, IsCall: true, PC: spc, Taken: true}
		case pred.KindRet:
			slots[i] = pred.SlotInfo{Valid: true, IsRet: true, PC: spc, Taken: true}
		case pred.KindIndirect:
			slots[i] = pred.SlotInfo{Valid: true, IsIndir: true, PC: spc, Taken: true}
		default:
			slots[i] = pred.SlotInfo{}
			continue
		}
		if slots[i].Taken && p.TgtValid {
			cfi = i
			next = p.Target
			for i++; i < w; i++ {
				slots[i] = pred.SlotInfo{}
			}
			return cfi, next
		}
	}
	return cfi, next
}

// isSFB reports whether a branch qualifies for short-forwards-branch
// predication (§VI-C): a forward conditional branch spanning at most
// SFBMaxDist instructions, whose shadow exists entirely in the image and
// contains no control flow.
func (c *Core) isSFB(inst *program.Inst) bool {
	if inst.Kind != program.KindBranch || inst.Target <= inst.PC {
		return false
	}
	ib := uint64(c.cfg.Fetch.InstBytes)
	dist := (inst.Target - inst.PC) / ib
	if dist == 0 || dist > uint64(c.cfg.SFBMaxDist) {
		return false
	}
	for pc := inst.PC + ib; pc < inst.Target; pc += ib {
		sh := c.prog.At(pc)
		if sh == nil || sh.Kind != program.KindOp {
			return false
		}
	}
	return c.prog.At(inst.Target) != nil
}

// predecode inspects the fetched bytes (static program image) for the
// packet: CFI kinds and direct targets become known, short forward branches
// are predicated, returns consult the RAS, and the packet's final view is
// fixed.  Runs once per packet.
func (c *Core) predecode(pk *pkt) {
	w := c.cfg.Fetch.FetchWidth
	ib := uint64(c.cfg.Fetch.InstBytes)
	view := pk.stages[len(pk.stages)-1]
	slots := c.scratchSlots()[:w]
	cfi := -1
	next := pk.base + uint64(c.cfg.Fetch.PktBytes())
	end := w - 1
	var predMask uint32
	rasPush, rasRet := uint64(0), false

	// Each slot is written once: zero before start, at slots without
	// control flow and after the packet-ending CFI.
	i := 0
	for ; i < pk.start; i++ {
		slots[i] = pred.SlotInfo{}
	}
scan:
	for ; i < w; i++ {
		spc := pk.base + uint64(i)*ib
		inst := c.prog.At(spc)
		if inst == nil || inst.Kind == program.KindOp {
			slots[i] = pred.SlotInfo{}
			continue
		}
		if c.cfg.SFB && c.isSFB(inst) {
			predMask |= 1 << uint(i)
			slots[i] = pred.SlotInfo{}
			continue
		}
		switch inst.Kind {
		case program.KindBranch:
			dir := view[i].DirValid && view[i].Taken
			slots[i] = pred.SlotInfo{Valid: true, IsBranch: true, PC: spc, Taken: dir}
			if dir {
				cfi, end, next = i, i, inst.Target // decode fixes direct targets
				break scan
			}
			if c.cfg.SerializedFetch {
				cfi, end, next = i, i, spc+ib
				break scan
			}
		case program.KindJump:
			slots[i] = pred.SlotInfo{Valid: true, IsJump: true, PC: spc, Taken: true}
			cfi, end, next = i, i, inst.Target
			break scan
		case program.KindCall:
			slots[i] = pred.SlotInfo{Valid: true, IsCall: true, PC: spc, Taken: true}
			cfi, end, next = i, i, inst.Target
			rasPush = spc + ib
			break scan
		case program.KindRet:
			slots[i] = pred.SlotInfo{Valid: true, IsRet: true, PC: spc, Taken: true}
			cfi, end = i, i
			rasRet = true
			next = spc + ib // placeholder; fixed below from the RAS
			break scan
		case program.KindIndirect:
			slots[i] = pred.SlotInfo{Valid: true, IsIndir: true, PC: spc, Taken: true}
			cfi, end = i, i
			if view[i].TgtValid {
				next = view[i].Target
			} else {
				next = spc + ib // no idea; the resolve will redirect
				c.S.BTBMisses++
			}
			break scan
		}
	}
	for i++; i < w; i++ {
		slots[i] = pred.SlotInfo{}
	}

	// RAS operations happen once, checkpointed into the repair log first.
	// The checkpoint records which slot performs the operation so a
	// mispredict at an older slot of the same packet can undo it.
	if c.rasHead > 0 && len(c.rasCps) == cap(c.rasCps) {
		n := copy(c.rasCps, c.rasCps[c.rasHead:])
		c.rasCps, c.rasHead = c.rasCps[:n], 0
	}
	c.rasCps = append(c.rasCps, rasCp{entrySeq: pk.e.Seq(), opSlot: cfi, cp: c.ras.Checkpoint()})
	if rasRet {
		c.S.RASEvents++
		if tgt, ok := c.ras.Pop(); ok {
			next = tgt
		} else if view[cfi].TgtValid {
			next = view[cfi].Target
		}
	}
	if rasPush != 0 {
		c.S.RASEvents++
		c.ras.Push(rasPush)
	}

	// Install the final view: redirect if the next PC changed; otherwise
	// refine the history contribution per the pipeline's GHR policy.
	replay := c.bp.Opt.GHRPolicy == compose.GHRRepairReplay
	if next != pk.nextPC {
		c.bp.ReAccept(c.cycle, pk.e, view, slots, cfi, next, true)
		c.dropYoungerPkts(pk)
		c.fetchPC = next
		c.S.RedirectFlushes++
		c.emitRedirect(pk.e.Seq(), next)
	} else if !slotsEqual(slots, pk.slots) || cfi != pk.cfiIdx {
		c.bp.ReAccept(c.cycle, pk.e, view, slots, cfi, next, replay)
		if replay {
			c.dropYoungerPkts(pk)
			c.fetchPC = next
			c.S.FetchReplays++
			c.emitRedirect(pk.e.Seq(), next)
		} else {
			c.S.HistoryRepairs++
		}
	}
	pk.view = view
	// Exchange the scratch vector with the packet's: the invariant that no
	// in-flight packet references vdScratch is preserved by the swap.
	c.vdScratch = pk.slots
	pk.slots = slots
	pk.cfiIdx = cfi
	pk.nextPC = next
	pk.endSlot = end
	pk.predMask = predMask
	pk.predecoded = true
	// Even when nothing changed (no ReAccept), record the deepest-stage
	// view so provider attribution reflects the component that actually
	// backed the final prediction, not just the Fetch-1 view.
	pk.e.Used = view
}

func slotsEqual(a, b []pred.SlotInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Valid != y.Valid {
			return false
		}
		if !x.Valid {
			continue
		}
		if x.IsBranch != y.IsBranch || x.IsJump != y.IsJump || x.IsCall != y.IsCall ||
			x.IsRet != y.IsRet || x.IsIndir != y.IsIndir || x.Taken != y.Taken || x.PC != y.PC {
			return false
		}
	}
	return true
}

// dropYoungerPkts removes in-flight packets younger than pk (their compose
// entries were already squashed by ReAccept/Resolve).
func (c *Core) dropYoungerPkts(pk *pkt) {
	for i, q := range c.inflight {
		if q == pk {
			for _, y := range c.inflight[i+1:] {
				c.freePkt(y)
			}
			c.inflight = c.inflight[:i+1]
			return
		}
	}
}

// deliver writes the packet's instructions into the ring slots after the
// fetch buffer's youngest, tagging each against the oracle stream.  Returns
// false (retry next cycle) when the buffer lacks space.
func (c *Core) deliver(pk *pkt) bool {
	need := pk.endSlot - pk.start + 1
	if c.fbCount+need > c.cfg.FetchBufferCap {
		return false // packet waits for fetch-buffer space
	}
	ib := uint64(c.cfg.Fetch.InstBytes)
	entrySeq := pk.e.Seq()
	for i := pk.start; i <= pk.endSlot; i++ {
		spc := pk.base + uint64(i)*ib
		inst := c.prog.At(spc)
		predicated := pk.predMask&(1<<uint(i)) != 0
		var correct, predOff bool
		var stepIdx uint64
		switch {
		case !c.onCorrect:
		case c.predOffActive && spc < c.predOffUntil:
			predOff = true
		default:
			c.predOffActive = false
			st := c.steps.peek()
			if st.PC != spc {
				c.onCorrect = false
				break
			}
			correct, stepIdx = true, c.steps.consume()
			if predicated && st.Taken {
				c.predOffActive = true
				c.predOffUntil = st.Target
			}
			if inst != nil && inst.Kind.IsCFI() && !predicated {
				predNext := spc + ib
				if i == pk.cfiIdx {
					predNext = pk.nextPC
				}
				if st.NextPC != predNext {
					// Divergence: everything fetched after this CFI is
					// wrong-path until its resolution redirects.
					c.onCorrect = false
				}
			}
		}
		// Field by field: a composite literal would be built on the stack
		// and copied in.
		c.instSeq++
		f := &c.ring[c.robIdx(c.robCount+c.fbCount)].fbInst
		f.seq, f.pc, f.inst = c.instSeq, spc, inst
		f.entry, f.entrySeq, f.slot = pk.e, entrySeq, i
		f.stepIdx, f.correct = stepIdx, correct
		f.predicated, f.predOff = predicated, predOff
		c.fbCount++
	}
	c.pend(pk.e, need)
	return true
}

// frontendAdvance ages in-flight packets: applies deeper-stage overrides
// (the composer's redirect logic, §IV-B), pre-decodes, and delivers.
func (c *Core) frontendAdvance() {
	i := 0
	blocked := false // an older packet failed delivery: younger must wait
	for i < len(c.inflight) {
		pk := c.inflight[i]
		if pk.born == c.cycle {
			// Fetched this cycle; its stage-1 decision already steered the
			// next fetch. Deeper stages respond starting next cycle.
			i++
			continue
		}
		prev := pk.age
		pk.age++
		// Deeper-stage override checks (redirect on next-PC change).
		redirected := false
		for d := prev + 1; d <= pk.age && d <= len(pk.stages); d++ {
			if d < 2 {
				continue
			}
			v := pk.stages[d-1]
			slots := c.scratchSlots()
			cfi, next := c.viewDecode(pk.base, pk.start, v, slots)
			if next != pk.nextPC {
				c.bp.ReAccept(c.cycle, pk.e, v, slots, cfi, next, true)
				c.vdScratch = pk.slots // swap scratch with the packet's vector
				pk.view, pk.slots, pk.cfiIdx, pk.nextPC = v, slots, cfi, next
				c.dropYoungerPkts(pk)
				c.fetchPC = next
				c.S.RedirectFlushes++
				c.emitRedirect(pk.e.Seq(), next)
				redirected = true
			}
		}
		_ = redirected
		if pk.age >= len(pk.stages) {
			if !pk.predecoded {
				c.predecode(pk)
			}
			// Delivery must stay in program order: once an older packet is
			// stalled on fetch-buffer space, younger packets wait behind it.
			if !blocked && c.deliver(pk) {
				// Delivered: remove from the in-flight window.
				c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
				c.freePkt(pk)
				continue
			}
			blocked = true
		}
		i++
	}
}

// fetch issues one packet query per cycle when the frontend is unblocked.
func (c *Core) fetch() {
	if c.cycle < c.stallUntil {
		return
	}
	if len(c.inflight) >= c.bp.Opt.HFEntries/2 || c.bp.Full() {
		return
	}
	if c.fbCount >= c.cfg.FetchBufferCap {
		return
	}
	e, stages := c.bp.Predict(c.cycle, c.fetchPC)
	if e == nil {
		return
	}
	base := c.cfg.Fetch.PacketBase(c.fetchPC)
	start := c.cfg.Fetch.SlotOf(c.fetchPC)
	slots := c.newSlots()
	cfi, next := c.viewDecode(base, start, stages[0], slots)
	c.bp.Accept(c.cycle, e, stages[0], slots, cfi, next)
	// Field by field: a composite literal would be built on the stack and
	// copied in.
	pk := c.newPkt()
	pk.e, pk.stages, pk.base, pk.start = e, stages, base, start
	pk.view, pk.slots, pk.cfiIdx, pk.nextPC = stages[0], slots, cfi, next
	pk.age, pk.born = 1, c.cycle
	c.inflight = append(c.inflight, pk)
	c.fetchPC = next
}
