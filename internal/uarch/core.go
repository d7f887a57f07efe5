package uarch

import (
	"context"
	"fmt"
	"math/bits"

	"cobra/internal/components"
	"cobra/internal/compose"
	"cobra/internal/interval"
	"cobra/internal/obs"
	"cobra/internal/pred"
	"cobra/internal/program"
	"cobra/internal/stats"
)

// issue-queue classes (Table II: INT, MEM, FP).
const (
	iqInt = iota
	iqMem
	iqFP
	numIQ
)

// robE is one in-flight instruction's record in the core's ring: deliver
// writes the front-end half as the instruction enters the fetch buffer, and
// dispatch the ROB-side half as it enters the ROB.  The record stays in its
// slot until it commits or is flushed.
type robE struct {
	fbInst
	robState
}

// robState is the ROB-side half of an in-flight record.
type robState struct {
	doneAt uint64
	src    [2]prodRef
	bucket uint32 // the completion wheel's bucket while state is 1

	// Wakeup links.  waitOn has bit k set while src[k]'s producer is live
	// and not yet written back; the consumer is then on that producer's
	// wake list through link slot*2+k+1 (0 ends a list).  wakeHead is this
	// entry's own list as a producer, youngest consumer first; wakeNext[k]
	// follows the src[k] link.
	wakeHead int32
	wakeNext [2]int32
	waitOn   uint8

	state uint8 // 0 waiting, 1 issued, 2 done
	iq    uint8

	misp, dirMisp, tgtMisp bool
}

// slotSet is a bitset over ring slots.
type slotSet []uint64

func (s slotSet) set(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s slotSet) clear(i int)    { s[i>>6] &^= 1 << (i & 63) }
func (s slotSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }

// next returns the lowest member of s in [lo, hi), or -1.
func (s slotSet) next(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	w := lo >> 6
	m := s[w] &^ (uint64(1)<<(lo&63) - 1)
	for m == 0 {
		w++
		if w<<6 >= hi {
			return -1
		}
		m = s[w]
	}
	if i := w<<6 + bits.TrailingZeros64(m); i < hi {
		return i
	}
	return -1
}

// prodRef names a producing ring slot (idx < 0 means operand ready).
type prodRef struct {
	idx int
	seq uint64
}

type renameEntry struct {
	idx   int
	seq   uint64
	valid bool
}

// pendRec counts the delivered instructions of one history-file entry that
// have neither committed nor been flushed.  Records are indexed by the
// entry's ring slot and tagged with its seq; a record is live while its
// count is non-zero.
type pendRec struct {
	seq   uint64
	count int
}

// Core is the assembled BOOM-like machine: a COBRA predictor pipeline
// driving the fetch unit of an out-of-order backend, executing a synthetic
// program measured against its architectural oracle.
type Core struct {
	cfg    Config
	bp     *compose.Pipeline
	prog   *program.Program
	oracle *program.Oracle
	ras    *components.RAS
	mem    *hierarchy
	steps  *stepBuffer

	S stats.Sim

	cycle     uint64
	cycleBase uint64 // subtracted from cycle counts (warmup discard)
	instSeq   uint64

	// frontend
	fetchPC       uint64
	stallUntil    uint64
	inflight      []*pkt
	onCorrect     bool
	predOffActive bool
	predOffUntil  uint64
	rasCps        []rasCp
	rasHead       int // index of the oldest live RAS checkpoint

	// freelists: steady-state fetch recycles packets and per-packet slot
	// vectors instead of allocating (the fetch/decode loop is the
	// simulator's hottest path).
	pktFree   []*pkt
	slotsFree [][]pred.SlotInfo
	vdScratch []pred.SlotInfo // reusable viewDecode destination

	// In-flight instructions: one power-of-two ring of records.  The ROB is
	// the robCount records from robHead, and the fetch buffer the fbCount
	// records after them, so dispatch only moves the boundary.
	ring     []robE
	ringMask int
	robHead  int
	robCount int
	fbCount  int

	// backend
	rename   [32]renameEntry
	iqUsed   [numIQ]int
	ldqUsed  int
	stqUsed  int
	pending  []pendRec // one per history-file slot (see pend)
	pendSeen []int     // paranoid mode: per-slot instruction counts (checkInflight)

	// Scheduler slot sets (see issue and writeback): waitSet holds state-0
	// entries, and readySet the waiting entries whose producers have all
	// written back.  The state-1 entries sit in a completion wheel of
	// slot sets laid end to end in wheel: wheelSet(t&wheelMask) holds those
	// due at cycle t, or a whole number of turns later when a latency
	// outlasts the ring.
	waitSet, readySet slotSet
	wheel             []uint64
	wheelMask         uint64
	paranoid          bool    // check the sets against a ROB scan every step
	execSeen          slotSet // paranoid mode: the wheel's union (checkSched)

	lastCommitCycle uint64
	histRepairBase  uint64

	ctx context.Context // optional cooperative-cancellation handle

	// observability (all nil/zero-cost when disabled; see internal/obs)
	obsv       obs.Observer       // mirrors bp.Observer(): frontend redirect records
	prof       *obs.BranchProfile // per-PC misprediction attribution (H2P)
	opsScratch []obs.Opinion      // reused opinion buffer for prof records
	rec        *interval.Recorder // the run's telemetry sink (see SetRecorder)
}

// NewCore wires a predictor pipeline to a program.
func NewCore(cfg Config, bp *compose.Pipeline, prog *program.Program, seed uint64) *Core {
	if cfg.Fetch != bp.Cfg {
		panic("uarch: core and pipeline disagree on fetch geometry")
	}
	oracle := program.NewOracle(prog, seed)
	slots := 1 << bits.Len(uint(cfg.ROBEntries+cfg.FetchBufferCap-1))
	words := (slots + 63) / 64
	buckets := wheelBuckets(cfg)
	sets := make([]uint64, (2+buckets)*words)
	return &Core{
		cfg:       cfg,
		bp:        bp,
		prog:      prog,
		oracle:    oracle,
		ras:       components.NewRAS(cfg.RASEntries),
		mem:       newHierarchy(cfg),
		steps:     newStepBuffer(oracle),
		fetchPC:   prog.Entry,
		onCorrect: true,
		ring:      make([]robE, slots),
		ringMask:  slots - 1,
		pending:   make([]pendRec, bp.Opt.HFEntries),
		waitSet:   sets[:words:words],
		readySet:  sets[words : 2*words : 2*words],
		wheel:     sets[2*words:],
		wheelMask: uint64(buckets - 1),
		paranoid:  bp.Paranoid(),
		obsv:      bp.Observer(),
		S:         stats.NewSim(),
	}
}

// maxWheel caps the completion wheel, keeping it a few KB for any latency;
// an entry due later than one turn waits out the extra turns in its bucket.
const maxWheel = 256

// wheelBuckets sizes the completion wheel: the smallest power of two that
// is at least the longest execution latency plus two, so one turn covers
// every latency from the cycle after issue, up to maxWheel.
func wheelBuckets(cfg Config) int {
	lat := max(cfg.ALULat, cfg.MulLat, cfg.FPLat, cfg.L1Lat, cfg.L2Lat, cfg.MemLat, 0)
	return min(1<<bits.Len(uint(lat+1)), maxWheel)
}

// wheelSet returns the completion wheel's slot set b.
func (c *Core) wheelSet(b uint64) slotSet {
	w := uint64(len(c.waitSet))
	return c.wheel[b*w : (b+1)*w : (b+1)*w]
}

// SetBranchProfile attaches a per-PC misprediction attribution profile: the
// commit stage records every committed control-flow instruction into it,
// and the pipeline starts tracking per-component direction opinions so the
// profile can name overridden-but-right components.  Nil detaches.
func (c *Core) SetBranchProfile(p *obs.BranchProfile) {
	c.prof = p
	if p != nil {
		c.bp.EnableOpinionTracking()
	}
}

// SetRecorder attaches the run's telemetry sink before the first Run.  Run
// feeds it every 8192 cycles and at the end, ResetStats rebases it, and the
// commit stage reports mispredicted branches to it; the live progress, the
// batch metrics and the interval windows are all read from it (see
// interval.Recorder).  Nil detaches.
func (c *Core) SetRecorder(r *interval.Recorder) { c.rec = r }

// emitRedirect records a frontend redirect on the observability stream.
func (c *Core) emitRedirect(seq, target uint64) {
	if c.obsv == nil {
		return
	}
	ev := obs.Event{Cycle: c.cycle, PC: target, Seq: seq, Kind: obs.KRedirect, Slot: -1}
	c.obsv.Event(&ev)
}

// SetContext attaches a cancellation context: Run polls it periodically and
// returns early (with whatever has been measured so far) once it is done.
// The caller distinguishes a completed run from an aborted one by checking
// ctx.Err().
func (c *Core) SetContext(ctx context.Context) { c.ctx = ctx }

// Pipeline exposes the attached predictor pipeline (for reports).
func (c *Core) Pipeline() *compose.Pipeline { return c.bp }

// Cycle returns the current simulated cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// ageSpan returns the seg-th slot range of the ROB in age order: from
// robHead up to the ROB's end or the ring's, then the part that wrapped to
// slot 0.  Walking a slot set over both spans visits its members oldest
// first.
func (c *Core) ageSpan(seg int) (lo, hi int) {
	end := c.robHead + c.robCount
	if seg == 0 {
		return c.robHead, min(end, len(c.ring))
	}
	return 0, max(end-len(c.ring), 0)
}

// robIdx maps an age position (0 = oldest ROB record) to its ring slot;
// positions from robCount on are the fetch buffer's.
func (c *Core) robIdx(i int) int { return (c.robHead + i) & c.ringMask }

// pend adds n delivered instructions to entry e's outstanding count.  The
// record lives in e's history-file slot: an entry's instructions all leave
// the machine before its slot can be reallocated, so a slot holds at most
// one live record (checkInflight polices this in paranoid mode).
func (c *Core) pend(e *compose.Entry, n int) {
	r := &c.pending[e.RingIndex()]
	if r.count == 0 {
		r.seq = e.Seq()
	}
	r.count += n
}

// unpend decrements the outstanding count of f's history-file entry; at
// zero the packet has fully committed (commit=true) or fully vanished, and
// the entry retires or is dropped.
func (c *Core) unpend(f *fbInst, commit bool) {
	r := &c.pending[f.entry.RingIndex()]
	if r.count == 0 || r.seq != f.entrySeq {
		return
	}
	r.count--
	if r.count == 0 && commit && f.entry.Valid() {
		c.bp.Commit(c.cycle, f.entry)
	}
}

// tgtProvider names the sub-component whose target opinion the frontend
// accepted for f's slot, for H2P attribution of jumps and indirects.
func (c *Core) tgtProvider(f *fbInst) string {
	if f.entry != nil && f.slot < len(f.entry.Used) {
		if p := c.bp.ProviderName(f.entry.Used[f.slot].TgtProvider); p != "" {
			return p
		}
	}
	return "(none)"
}

func classIQ(inst *program.Inst) uint8 {
	if inst == nil {
		return iqInt
	}
	switch inst.Class {
	case program.ClassLoad, program.ClassStore:
		return iqMem
	case program.ClassFP:
		return iqFP
	default:
		return iqInt
	}
}

// dispatch renames and inserts fetch-buffer instructions into the ROB and
// issue queues, up to the decode width, subject to structural limits.  The
// oldest fetch-buffer record is the slot after the ROB's youngest, so an
// instruction enters the ROB where it already is: dispatch writes its
// ROB-side half and moves the boundary.
func (c *Core) dispatch() {
	if c.fbCount == 0 {
		c.S.FetchBubbles++
		return
	}
	for n := 0; n < c.cfg.DecodeWidth && c.fbCount > 0; n++ {
		if c.robCount == c.cfg.ROBEntries {
			return
		}
		idx := c.robIdx(c.robCount)
		r := &c.ring[idx]
		inst := r.inst
		iq := classIQ(inst)
		if c.iqUsed[iq] >= c.cfg.IQEntries {
			return
		}
		isLoad := inst != nil && inst.Class == program.ClassLoad
		isStore := inst != nil && inst.Class == program.ClassStore
		if isLoad && c.ldqUsed >= c.cfg.LDQEntries {
			return
		}
		if isStore && c.stqUsed >= c.cfg.STQEntries {
			return
		}
		// Field by field, as deliver does; doneAt and bucket wait for issue,
		// and wakeNext[k] for a link.
		r.state, r.iq, r.waitOn = 0, iq, 0
		r.misp, r.dirMisp, r.tgtMisp = false, false, false
		r.wakeHead = 0
		if inst == nil {
			r.src[0], r.src[1] = prodRef{idx: -1}, prodRef{idx: -1}
		} else {
			r.src[0], r.src[1] = c.lookupProducer(inst.Src1), c.lookupProducer(inst.Src2)
			c.waitFor(idx, 0)
			c.waitFor(idx, 1)
			if inst.Dst != 0 {
				c.rename[inst.Dst%32] = renameEntry{idx: idx, seq: r.seq, valid: true}
			}
		}
		c.waitSet.set(idx)
		if r.waitOn == 0 {
			c.readySet.set(idx)
		}
		c.robCount++
		c.fbCount--
		c.iqUsed[iq]++
		if isLoad {
			c.ldqUsed++
		}
		if isStore {
			c.stqUsed++
		}
	}
}

func (c *Core) lookupProducer(reg uint8) prodRef {
	if reg == 0 {
		return prodRef{idx: -1}
	}
	re := c.rename[reg%32]
	if !re.valid {
		return prodRef{idx: -1}
	}
	return prodRef{idx: re.idx, seq: re.seq}
}

// waitFor links slot's src[k] onto its producer's wake list when that
// producer is live and not yet written back — the test ready applies,
// taken once at dispatch.  A done or retired producer stays done, and a
// flushed producer's consumers are flushed with it, so the answer only
// ever changes through the producer's writeback (wake).  A producer's slot
// holds it until a younger instruction is delivered there, under a new seq.
func (c *Core) waitFor(slot, k int) {
	r := &c.ring[slot]
	s := r.src[k]
	if s.idx < 0 {
		return
	}
	p := &c.ring[s.idx]
	if p.seq != s.seq || p.state == 2 {
		return
	}
	r.wakeNext[k] = p.wakeHead
	p.wakeHead = int32(slot*2 + k + 1)
	r.waitOn |= 1 << k
}

// wake releases every consumer on r's wake list as r writes back; a
// consumer with no source left to wait on becomes ready.
func (c *Core) wake(r *robE) {
	for l := r.wakeHead; l != 0; {
		slot, k := int(l-1)>>1, (l-1)&1
		cr := &c.ring[slot]
		cr.waitOn &^= 1 << k
		if cr.waitOn == 0 {
			c.readySet.set(slot)
		}
		l = cr.wakeNext[k]
	}
	r.wakeHead = 0
}

// unlink takes a flushed consumer off its producers' wake lists.  The
// ROB tail flushes youngest first and lists run youngest first, so each
// of the consumer's links is the head of its list by the time it goes.
func (c *Core) unlink(r *robE) {
	for k := 1; k >= 0; k-- {
		if r.waitOn&(1<<k) != 0 {
			c.ring[r.src[k].idx].wakeHead = r.wakeNext[k]
		}
	}
	r.waitOn = 0
}

// ready reports whether an instruction's operands have been produced, by a
// full look at its producers: the oracle readySet is checked against in
// paranoid mode.
func (c *Core) ready(r *robE) bool {
	for _, s := range r.src {
		if s.idx < 0 {
			continue
		}
		p := &c.ring[s.idx]
		if p.seq == s.seq && p.state != 2 {
			return false
		}
	}
	return true
}

// execLatency returns the instruction's execution latency, touching the
// cache model for memory operations.
func (c *Core) execLatency(r *robE) int {
	if r.inst == nil {
		return c.cfg.ALULat
	}
	switch r.inst.Class {
	case program.ClassMul:
		return c.cfg.MulLat
	case program.ClassFP:
		return c.cfg.FPLat
	case program.ClassLoad:
		return c.mem.loadLatency(c.memAddr(r))
	case program.ClassStore:
		c.mem.store(c.memAddr(r))
		return c.cfg.ALULat
	default:
		return c.cfg.ALULat
	}
}

// memAddr produces the access address: the architectural address for
// correct-path instructions, a PC-derived pseudo-address for wrong-path ones
// (which realistically pollute the cache without touching oracle state).
func (c *Core) memAddr(r *robE) uint64 {
	if r.correct {
		if a := c.steps.at(r.stepIdx).Addr; a != 0 {
			return a
		}
	}
	return 0x4000_0000 + (r.pc*0x9E3779B9)&0xF_FFF8
}

// issue selects ready instructions per issue queue, oldest first, up to each
// queue's issue width.  It walks the ready set in age order (an in-order
// core walks the waiting set and stalls at the first entry that cannot
// issue), so the selection is exactly that of a full ROB scan testing
// every waiting entry's operands.
func (c *Core) issue() {
	budget := [numIQ]int{c.cfg.NumALU, c.cfg.NumMem, c.cfg.NumFP}
	cand := c.readySet
	if c.cfg.InOrderIssue {
		cand = c.waitSet
	}
	for seg := 0; seg < 2; seg++ {
		lo, hi := c.ageSpan(seg)
		for i := cand.next(lo, hi); i >= 0; i = cand.next(i+1, hi) {
			r := &c.ring[i]
			if budget[r.iq] == 0 || !c.readySet.has(i) {
				if c.cfg.InOrderIssue {
					return // in-order pipelines stall behind the oldest hazard
				}
				continue
			}
			budget[r.iq]--
			c.iqUsed[r.iq]--
			r.state = 1
			r.doneAt = c.cycle + uint64(c.execLatency(r))
			// Writeback has run this cycle: a zero latency completes at
			// the next one.
			r.bucket = uint32(max(r.doneAt, c.cycle+1) & c.wheelMask)
			c.waitSet.clear(i)
			c.readySet.clear(i)
			c.wheelSet(uint64(r.bucket)).set(i)
		}
	}
}

// writeback completes issued instructions, oldest first, waking their
// consumers, and resolves correct-path control flow; a misprediction
// triggers the full flush-and-redirect sequence, which removes every
// younger entry and so ends the walk.  Only this cycle's wheel bucket is
// walked: every entry due now is in it.
func (c *Core) writeback() {
	due := c.wheelSet(c.cycle & c.wheelMask)
	for seg := 0; seg < 2; seg++ {
		lo, hi := c.ageSpan(seg)
		for i := due.next(lo, hi); i >= 0; i = due.next(i+1, hi) {
			r := &c.ring[i]
			if r.doneAt > c.cycle {
				continue // due a whole number of turns later
			}
			r.state = 2
			due.clear(i)
			c.wake(r)
			if !r.correct || r.predicated || r.inst == nil || !r.inst.Kind.IsCFI() {
				continue
			}
			st := c.steps.at(r.stepIdx)
			res := c.bp.Resolve(c.cycle, r.entry, r.slot, st.Taken, st.Target)
			if !res.Mispredict {
				continue
			}
			r.misp, r.dirMisp, r.tgtMisp = true, res.DirMisp, res.TgtMisp
			c.flushAfter(r, res.Redirect)
			return
		}
	}
}

// flushAfter squashes everything younger than the resolving instruction:
// fetch buffer, in-flight fetch packets, ROB tail, rename mappings, RAS
// state, and the oracle window cursor; then redirects fetch.
func (c *Core) flushAfter(r *robE, redirect uint64) {
	branchSeq := r.seq
	// The fetch buffer and in-flight packets are all younger than a
	// resolving branch (in-order frontend).
	for k := 0; k < c.fbCount; k++ {
		c.unpend(&c.ring[c.robIdx(c.robCount+k)].fbInst, false)
	}
	c.fbCount = 0
	for _, pk := range c.inflight {
		c.freePkt(pk)
	}
	c.inflight = c.inflight[:0]
	// ROB tail flush.
	for c.robCount > 0 {
		ti := c.robIdx(c.robCount - 1)
		tail := &c.ring[ti]
		if tail.seq <= branchSeq {
			break
		}
		c.waitSet.clear(ti)
		c.readySet.clear(ti)
		c.unlink(tail)
		switch tail.state {
		case 0:
			c.iqUsed[tail.iq]--
		case 1:
			c.wheelSet(uint64(tail.bucket)).clear(ti)
		}
		if tail.inst != nil {
			switch tail.inst.Class {
			case program.ClassLoad:
				c.ldqUsed--
			case program.ClassStore:
				c.stqUsed--
			}
		}
		c.unpend(&tail.fbInst, false)
		c.robCount--
	}
	// Rename table: drop mappings to flushed producers.
	for reg := range c.rename {
		if c.rename[reg].valid && c.rename[reg].seq > branchSeq {
			c.rename[reg] = renameEntry{}
		}
	}
	// RAS repair: restore the checkpoint of the oldest squashed RAS
	// operation.  An operation is squashed when its packet is younger than
	// the resolving branch, or when it sits in the *same* packet at a
	// younger slot (a wrong-path call/ret fetched right after the branch).
	eSeq := r.entrySeq
	for i := c.rasHead; i < len(c.rasCps); i++ {
		cp := c.rasCps[i]
		if cp.entrySeq > eSeq || (cp.entrySeq == eSeq && cp.opSlot > r.slot) {
			c.ras.Restore(cp.cp)
			c.rasCps = c.rasCps[:i]
			break
		}
	}
	// Oracle window: refetch re-serves the same steps.
	if r.correct {
		c.steps.rewind(r.stepIdx + 1)
	}
	c.onCorrect = true
	c.predOffActive = false
	c.fetchPC = redirect
	c.stallUntil = c.cycle + uint64(c.cfg.RedirectLatency)
	c.emitRedirect(eSeq, redirect)
}

// commit retires completed instructions in order.
func (c *Core) commit() {
	for n := 0; n < c.cfg.CommitWidth && c.robCount > 0; n++ {
		r := &c.ring[c.robHead]
		if r.state != 2 {
			return
		}
		f := &r.fbInst
		if f.correct {
			c.S.Instructions++
			c.lastCommitCycle = c.cycle
			if f.inst != nil && !f.predicated {
				switch f.inst.Kind {
				case program.KindBranch:
					c.S.Branches++
					prov := ""
					if f.entry != nil && f.slot < len(f.entry.Used) {
						prov = c.bp.ProviderName(f.entry.Used[f.slot].DirProvider)
					}
					if prov == "" {
						prov = "(default-nt)"
					}
					c.S.AddProviderHit(prov)
					if r.misp {
						c.S.Mispredicts++
						if r.dirMisp {
							c.S.DirMispredicts++
						} else {
							c.S.TgtMispredicts++
						}
						c.S.AddProviderMiss(prov)
						if c.rec != nil {
							c.rec.Mispredict(f.pc)
						}
					}
					if c.prof != nil {
						var ops []obs.Opinion
						if r.misp && f.entry != nil {
							c.opsScratch = c.bp.SlotOpinions(f.entry, f.slot, c.opsScratch)
							ops = c.opsScratch
						}
						c.prof.Record(f.pc, "branch", c.steps.at(f.stepIdx).Taken, r.misp, prov, ops)
					}
				case program.KindJump, program.KindCall:
					c.S.Jumps++
					if r.misp {
						c.S.Mispredicts++
						c.S.TgtMispredicts++
					}
					if c.prof != nil {
						c.prof.Record(f.pc, "jump", true, r.misp, c.tgtProvider(f), nil)
					}
				case program.KindRet, program.KindIndirect:
					c.S.IndirectJumps++
					if r.misp {
						c.S.Mispredicts++
						c.S.TgtMispredicts++
					}
					if c.prof != nil {
						c.prof.Record(f.pc, "indirect", true, r.misp, c.tgtProvider(f), nil)
					}
				}
			}
			c.steps.prune(f.stepIdx)
		}
		if f.inst != nil {
			switch f.inst.Class {
			case program.ClassLoad:
				c.ldqUsed--
			case program.ClassStore:
				c.stqUsed--
			}
		}
		// Retire rename mapping if this instruction still owns it.
		if f.inst != nil && f.inst.Dst != 0 {
			re := &c.rename[f.inst.Dst%32]
			if re.valid && re.seq == f.seq {
				*re = renameEntry{}
			}
		}
		c.unpend(f, true)
		// Prune committed RAS checkpoints.
		for c.rasHead < len(c.rasCps) && c.rasCps[c.rasHead].entrySeq < f.entrySeq {
			c.rasHead++
		}
		c.robHead = c.robIdx(1)
		c.robCount--
	}
}

// step advances the machine one cycle.
//
// fetch runs before frontendAdvance so that a deeper-stage override
// discovered this cycle redirects *next* cycle's fetch: the sequential
// fetch launched this cycle with the stale PC and gets squashed — the
// 1-bubble-per-override-level cost of the Alpha-style scheme (§IV-B).
// Only stage-1 predictions (computed combinationally within fetch) steer
// the immediately following fetch for free, which is the single-cycle
// uBTB's entire reason to exist.
func (c *Core) step() {
	c.cycle++
	c.bp.Tick(c.cycle)
	c.commit()
	c.writeback()
	c.issue()
	c.dispatch()
	c.fetch()
	c.frontendAdvance()
	if c.paranoid {
		c.checkSched()
		c.checkInflight()
	}
}

// checkInflight is the paranoid-mode invariant over the structures that
// track in-flight instructions: every fetch-buffer and ROB instruction's
// history-file entry is live, the pending record in its slot is tagged with
// its seq, and each record's count is exactly the number of instructions
// pointing at it; the oracle window [base, end) covers every in-flight
// instruction's step, and the cursor lies within it.  The ring holds at
// most ROBEntries ROB records and FetchBufferCap fetch-buffer records, and
// the fetch buffer sits directly after the ROB: its records are the
// newest deliveries, consecutive seqs ending at the last one, and none of
// their slots is in a scheduler set (checkSched, which runs first, leaves
// the completion wheel's union in execSeen).  Program order holds too:
// instruction seqs strictly increase from the oldest ROB entry through the
// youngest fetch-buffer entry, and the in-flight packets' entry seqs
// strictly increase.  A mismatch is recorded on the pipeline's violation
// list.
func (c *Core) checkInflight() {
	if c.pendSeen == nil {
		c.pendSeen = make([]int, len(c.pending))
	}
	clear(c.pendSeen)
	if c.robCount > c.cfg.ROBEntries || c.fbCount > c.cfg.FetchBufferCap {
		c.bp.ReportViolation("Core.step", c.cycle,
			"ring holds %d ROB records (limit %d) and %d fetch-buffer records (limit %d)",
			c.robCount, c.cfg.ROBEntries, c.fbCount, c.cfg.FetchBufferCap)
	}
	for i := 0; i < c.robCount+c.fbCount; i++ {
		j := c.robIdx(i)
		f := &c.ring[j].fbInst
		where, pos := "ROB", i
		if i >= c.robCount {
			where, pos = "fetch buffer", i-c.robCount
			if want := c.instSeq - uint64(c.robCount+c.fbCount-1-i); f.seq != want {
				c.bp.ReportViolation("Core.step", c.cycle,
					"fetch-buffer position %d (ring slot %d) holds seq %d, want delivery %d", pos, j, f.seq, want)
			}
			if c.waitSet.has(j) || c.readySet.has(j) || c.execSeen.has(j) {
				c.bp.ReportViolation("Core.step", c.cycle,
					"fetch-buffer ring slot %d is in a scheduler set (waiting=%v ready=%v executing=%v)",
					j, c.waitSet.has(j), c.readySet.has(j), c.execSeen.has(j))
			}
		}
		if i > 0 {
			if prev := c.ring[c.robIdx(i-1)].seq; f.seq <= prev {
				c.bp.ReportViolation("Core.step", c.cycle,
					"%s position %d holds seq %d after seq %d", where, pos, f.seq, prev)
			}
		}
		c.checkInst(f)
	}
	for i := 1; i < len(c.inflight); i++ {
		if a, b := c.inflight[i-1].e.Seq(), c.inflight[i].e.Seq(); b <= a {
			c.bp.ReportViolation("Core.step", c.cycle,
				"in-flight packet %d holds entry#%d after entry#%d", i, b, a)
		}
	}
	for slot, r := range c.pending {
		if r.count != c.pendSeen[slot] {
			c.bp.ReportViolation("Core.step", c.cycle,
				"pending slot %d counts %d instructions of entry#%d, fetch buffer and ROB hold %d",
				slot, r.count, r.seq, c.pendSeen[slot])
		}
	}
	if s := c.steps; s.cursor < s.base || s.cursor > s.end {
		c.bp.ReportViolation("Core.step", c.cycle,
			"step cursor %d outside the oracle window [%d, %d)", s.cursor, s.base, s.end)
	}
}

// checkInst checks one in-flight instruction for checkInflight and counts
// it against its entry's slot.
func (c *Core) checkInst(f *fbInst) {
	slot := f.entry.RingIndex()
	if r := c.pending[slot]; r.count == 0 || r.seq != f.entrySeq || !f.entry.Valid() || f.entry.Seq() != f.entrySeq {
		c.bp.ReportViolation("Core.step", c.cycle,
			"instruction seq %d of entry#%d: pending slot %d holds entry#%d (count %d), history file holds entry#%d (valid %v)",
			f.seq, f.entrySeq, slot, r.seq, r.count, f.entry.Seq(), f.entry.Valid())
	}
	c.pendSeen[slot]++
	if s := c.steps; f.correct && (f.stepIdx < s.base || f.stepIdx >= s.end) {
		c.bp.ReportViolation("Core.step", c.cycle,
			"instruction seq %d holds oracle step %d outside the window [%d, %d)", f.seq, f.stepIdx, s.base, s.end)
	}
}

// checkSched is the paranoid-mode scheduler invariant: the waiting,
// executing and ready slot sets must equal what a full ROB scan derives,
// with ready as the oracle for readiness.  Executing is the union of the
// completion wheel's buckets, which must not overlap; each executing entry
// must sit in the bucket of its completion cycle (the next cycle for a
// zero latency issued this cycle) and must not be overdue.  A mismatch is
// recorded on the pipeline's violation list.
func (c *Core) checkSched() {
	if c.execSeen == nil {
		c.execSeen = make(slotSet, len(c.waitSet))
	}
	exec := c.execSeen
	clear(exec)
	for b := uint64(0); b <= c.wheelMask; b++ {
		for w, m := range c.wheelSet(b) {
			if dup := exec[w] & m; dup != 0 {
				c.bp.ReportViolation("Core.step", c.cycle,
					"scheduler slot %d is in completion bucket %d and an earlier one",
					w<<6+bits.TrailingZeros64(dup), b)
			}
			exec[w] |= m
		}
	}
	n := len(c.ring)
	for j := 0; j < len(c.waitSet)*64; j++ {
		var wantW, wantE, wantR bool
		if j < n {
			age := j - c.robHead
			if age < 0 {
				age += n
			}
			if r := &c.ring[j]; age < c.robCount {
				wantW, wantE = r.state == 0, r.state == 1
				wantR = wantW && c.ready(r)
				if wantE {
					c.checkBucket(j, r)
				}
			}
		}
		if c.waitSet.has(j) != wantW || exec.has(j) != wantE || c.readySet.has(j) != wantR {
			c.bp.ReportViolation("Core.step", c.cycle,
				"scheduler slot %d sets waiting=%v executing=%v ready=%v, ROB scan says %v/%v/%v [head=%d count=%d]",
				j, c.waitSet.has(j), exec.has(j), c.readySet.has(j), wantW, wantE, wantR, c.robHead, c.robCount)
		}
	}
}

// checkBucket checks executing entry r in ROB slot j for checkSched: at
// the end of a step it is due after this cycle, or this cycle when it
// issued now with zero latency, and sits in that cycle's bucket.
func (c *Core) checkBucket(j int, r *robE) {
	if r.doneAt < c.cycle {
		c.bp.ReportViolation("Core.step", c.cycle,
			"scheduler slot %d is still executing, due at cycle %d", j, r.doneAt)
		return
	}
	want := max(r.doneAt, c.cycle+1) & c.wheelMask
	if held := c.wheelSet(uint64(r.bucket)).has(j); uint64(r.bucket) != want || !held {
		c.bp.ReportViolation("Core.step", c.cycle,
			"scheduler slot %d due at cycle %d: bucket %d (holds it: %v), want %d",
			j, r.doneAt, r.bucket, held, want)
	}
}

// ResetStats zeroes the performance counters without disturbing
// microarchitectural state — the standard warm-up methodology: run a
// warm-up slice, reset, then measure.
func (c *Core) ResetStats() {
	if c.rec != nil {
		// Discard warmup windows and restart the recorder's base at the
		// measurement boundary, so its totals and windows line up with S.
		c.rec.Rebase(c.cycle, &c.S, c.bp.C.ReAccepts, c.bp.C.Squashed, c.bp.C.HistRepairs)
	}
	c.S = stats.NewSim()
	c.cycleBase = c.cycle
	c.histRepairBase = c.bp.C.HistRepairs
}

// Run simulates until maxInsts architectural instructions commit (counted
// since the last ResetStats) and returns the statistics.  It also enforces
// the deadlock watchdog.
func (c *Core) Run(maxInsts uint64) *stats.Sim {
	c.lastCommitCycle = c.cycle
	for c.S.Instructions < maxInsts {
		// Poll the cancellation context every 256 cycles: goroutines cannot
		// be killed, so a stuck or over-budget job exits cooperatively here.
		if c.ctx != nil && c.cycle&0xFF == 0 && c.ctx.Err() != nil {
			break
		}
		// Telemetry flush every 8K cycles keeps a live metrics endpoint,
		// progress line, or SSE progress stream moving through a long run at
		// negligible cost.
		if c.rec != nil && c.cycle&0x1FFF == 0 {
			c.rec.Tick(c.cycle, &c.S, c.bp.C.ReAccepts, c.bp.C.Squashed, c.bp.C.HistRepairs)
		}
		c.step()
		if c.cycle-c.lastCommitCycle > c.cfg.WatchdogCycles {
			panic(fmt.Sprintf("uarch: no commit for %d cycles at cycle %d (pc=%#x, rob=%d, fb=%d, inflight=%d)",
				c.cfg.WatchdogCycles, c.cycle, c.fetchPC, c.robCount, c.fbCount, len(c.inflight)))
		}
	}
	c.S.Cycles = c.cycle - c.cycleBase
	c.S.HistoryRepairs = c.bp.C.HistRepairs - c.histRepairBase
	if c.rec != nil {
		c.rec.Finish(c.cycle, &c.S, c.bp.C.ReAccepts, c.bp.C.Squashed, c.bp.C.HistRepairs)
		// Paranoid mode reconciles the telemetry with the result of a run
		// that reached its budget: a cancelled run may end on cycles that
		// committed nothing, which no window covers.
		if c.paranoid && c.S.Instructions >= maxInsts {
			if err := c.rec.Reconcile(&c.S); err != nil {
				c.bp.ReportViolation("Core.Run", c.cycle, "telemetry: %v", err)
			}
		}
	}
	return &c.S
}
