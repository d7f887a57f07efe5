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

// robE is one reorder-buffer entry.
type robE struct {
	valid  bool
	fb     fbInst
	state  uint8 // 0 waiting, 1 issued, 2 done
	doneAt uint64
	iq     uint8
	src    [2]prodRef

	// Wakeup links.  waitOn has bit k set while src[k]'s producer is live
	// and not yet written back; the consumer is then on that producer's
	// wake list through link slot*2+k+1 (0 ends a list).  wakeHead is this
	// entry's own list as a producer, youngest consumer first; wakeNext[k]
	// follows the src[k] link.
	waitOn   uint8
	wakeHead int32
	wakeNext [2]int32

	misp, dirMisp, tgtMisp bool
}

// slotSet is a bitset over ROB slots.
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

// prodRef names a producing ROB slot (idx < 0 means operand ready).
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
	fb            []fbInst
	fbHead        int // index of the oldest live fetch-buffer entry
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

	// backend
	rob      []robE
	robHead  int
	robCount int
	rename   [32]renameEntry
	iqUsed   [numIQ]int
	ldqUsed  int
	stqUsed  int
	pending  []pendRec // one per history-file slot (see pend)
	pendSeen []int     // paranoid mode: per-slot instruction counts (checkInflight)

	// Scheduler slot sets (see issue and writeback): waitSet holds state-0
	// entries, execSet state-1 entries, and readySet the waiting entries
	// whose producers have all written back.
	waitSet, execSet, readySet slotSet
	paranoid                   bool // check the sets against a ROB scan every step

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
	words := (cfg.ROBEntries + 63) / 64
	sets := make([]uint64, 3*words)
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
		rob:       make([]robE, cfg.ROBEntries),
		pending:   make([]pendRec, bp.Opt.HFEntries),
		waitSet:   sets[:words:words],
		execSet:   sets[words : 2*words : 2*words],
		readySet:  sets[2*words:],
		paranoid:  bp.Paranoid(),
		obsv:      bp.Observer(),
		S:         stats.NewSim(),
	}
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

// ageSpan returns the seg-th slot range of the ROB ring in age order:
// robHead..n-1, then 0..robHead-1.  Walking a slot set over both spans
// visits its members oldest first.
func (c *Core) ageSpan(seg int) (lo, hi int) {
	if seg == 0 {
		return c.robHead, len(c.rob)
	}
	return 0, c.robHead
}

// robIdx maps an age position (0 = oldest) to its ROB slot.
func (c *Core) robIdx(i int) int {
	j := c.robHead + i
	if j >= len(c.rob) {
		j -= len(c.rob)
	}
	return j
}

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

func classIQ(f *fbInst) uint8 {
	if f.inst == nil {
		return iqInt
	}
	switch f.inst.Class {
	case program.ClassLoad, program.ClassStore:
		return iqMem
	case program.ClassFP:
		return iqFP
	default:
		return iqInt
	}
}

// fbLen returns the fetch-buffer occupancy (the buffer drains via a head
// index so dequeues never shift or reallocate the backing array).
func (c *Core) fbLen() int { return len(c.fb) - c.fbHead }

// dispatch renames and inserts fetch-buffer instructions into the ROB and
// issue queues, up to the decode width, subject to structural limits.
func (c *Core) dispatch() {
	if c.fbLen() == 0 {
		c.S.FetchBubbles++
		return
	}
	for n := 0; n < c.cfg.DecodeWidth && c.fbLen() > 0; n++ {
		if c.robCount == len(c.rob) {
			return
		}
		f := &c.fb[c.fbHead]
		iq := classIQ(f)
		if c.iqUsed[iq] >= c.cfg.IQEntries {
			return
		}
		isLoad := f.inst != nil && f.inst.Class == program.ClassLoad
		isStore := f.inst != nil && f.inst.Class == program.ClassStore
		if isLoad && c.ldqUsed >= c.cfg.LDQEntries {
			return
		}
		if isStore && c.stqUsed >= c.cfg.STQEntries {
			return
		}
		idx := c.robIdx(c.robCount)
		r := &c.rob[idx]
		*r = robE{valid: true, fb: *f, iq: iq}
		if f.inst != nil {
			r.src[0] = c.lookupProducer(f.inst.Src1)
			r.src[1] = c.lookupProducer(f.inst.Src2)
			c.waitFor(idx, 0)
			c.waitFor(idx, 1)
			if f.inst.Dst != 0 {
				c.rename[f.inst.Dst%32] = renameEntry{idx: idx, seq: f.seq, valid: true}
			}
		} else {
			r.src[0].idx, r.src[1].idx = -1, -1
		}
		c.waitSet.set(idx)
		if r.waitOn == 0 {
			c.readySet.set(idx)
		}
		c.robCount++
		c.iqUsed[iq]++
		if isLoad {
			c.ldqUsed++
		}
		if isStore {
			c.stqUsed++
		}
		c.fbHead++
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
// ever changes through the producer's writeback (wake).
func (c *Core) waitFor(slot, k int) {
	r := &c.rob[slot]
	s := r.src[k]
	if s.idx < 0 {
		return
	}
	p := &c.rob[s.idx]
	if !p.valid || p.fb.seq != s.seq || p.state == 2 {
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
		cr := &c.rob[slot]
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
			c.rob[r.src[k].idx].wakeHead = r.wakeNext[k]
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
		p := &c.rob[s.idx]
		if p.valid && p.fb.seq == s.seq && p.state != 2 {
			return false
		}
	}
	return true
}

// execLatency returns the instruction's execution latency, touching the
// cache model for memory operations.
func (c *Core) execLatency(r *robE) int {
	if r.fb.inst == nil {
		return c.cfg.ALULat
	}
	switch r.fb.inst.Class {
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
	if r.fb.hasStep && r.fb.step.Addr != 0 {
		return r.fb.step.Addr
	}
	return 0x4000_0000 + (r.fb.pc*0x9E3779B9)&0xF_FFF8
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
			r := &c.rob[i]
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
			c.waitSet.clear(i)
			c.readySet.clear(i)
			c.execSet.set(i)
		}
	}
}

// writeback completes issued instructions, oldest first, waking their
// consumers, and resolves correct-path control flow; a misprediction
// triggers the full flush-and-redirect sequence, which removes every
// younger entry and so ends the walk.
func (c *Core) writeback() {
	for seg := 0; seg < 2; seg++ {
		lo, hi := c.ageSpan(seg)
		for i := c.execSet.next(lo, hi); i >= 0; i = c.execSet.next(i+1, hi) {
			r := &c.rob[i]
			if r.doneAt > c.cycle {
				continue
			}
			r.state = 2
			c.execSet.clear(i)
			c.wake(r)
			f := &r.fb
			if !f.correct || f.predicated || f.inst == nil || !f.inst.Kind.IsCFI() {
				continue
			}
			res := c.bp.Resolve(c.cycle, f.entry, f.slot, f.step.Taken, f.step.Target)
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
// ROB tail, fetch buffer, in-flight fetch packets, rename mappings, RAS
// state, and the oracle window cursor; then redirects fetch.
func (c *Core) flushAfter(r *robE, redirect uint64) {
	branchSeq := r.fb.seq
	// ROB tail flush.
	for c.robCount > 0 {
		ti := c.robIdx(c.robCount - 1)
		tail := &c.rob[ti]
		if tail.fb.seq <= branchSeq {
			break
		}
		c.waitSet.clear(ti)
		c.execSet.clear(ti)
		c.readySet.clear(ti)
		c.unlink(tail)
		if tail.state == 0 {
			c.iqUsed[tail.iq]--
		}
		if tail.fb.inst != nil {
			switch tail.fb.inst.Class {
			case program.ClassLoad:
				c.ldqUsed--
			case program.ClassStore:
				c.stqUsed--
			}
		}
		c.unpend(&tail.fb, false)
		tail.valid = false
		c.robCount--
	}
	// Fetch buffer and in-flight packets are all younger than a resolving
	// branch (in-order frontend).
	for i := c.fbHead; i < len(c.fb); i++ {
		c.unpend(&c.fb[i], false)
	}
	c.fb, c.fbHead = c.fb[:0], 0
	for _, pk := range c.inflight {
		c.freePkt(pk)
	}
	c.inflight = c.inflight[:0]
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
	eSeq := r.fb.entrySeq
	for i := c.rasHead; i < len(c.rasCps); i++ {
		cp := c.rasCps[i]
		if cp.entrySeq > eSeq || (cp.entrySeq == eSeq && cp.opSlot > r.fb.slot) {
			c.ras.Restore(cp.cp)
			c.rasCps = c.rasCps[:i]
			break
		}
	}
	// Oracle window: refetch re-serves the same steps.
	if r.fb.hasStep {
		c.steps.rewind(r.fb.stepIdx + 1)
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
		r := &c.rob[c.robHead]
		if r.state != 2 {
			return
		}
		f := &r.fb
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
						c.prof.Record(f.pc, "branch", f.step.Taken, r.misp, prov, ops)
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
		r.valid = false
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
// instruction's step, and the cursor lies within it.  Program order holds
// too: instruction seqs strictly increase from the oldest ROB entry through
// the youngest fetch-buffer entry, and the in-flight packets' entry seqs
// strictly increase.  A mismatch is recorded on the pipeline's violation
// list.
func (c *Core) checkInflight() {
	if c.pendSeen == nil {
		c.pendSeen = make([]int, len(c.pending))
	}
	clear(c.pendSeen)
	var prev uint64 // seq of the previous instruction in program order
	first := true
	order := func(where string, i int, seq uint64) {
		if !first && seq <= prev {
			c.bp.ReportViolation("Core.step", c.cycle,
				"%s position %d holds seq %d after seq %d", where, i, seq, prev)
		}
		prev, first = seq, false
	}
	for i := 0; i < c.robCount; i++ {
		f := &c.rob[c.robIdx(i)].fb
		order("ROB", i, f.seq)
		c.checkInst(f)
	}
	for i := c.fbHead; i < len(c.fb); i++ {
		order("fetch buffer", i-c.fbHead, c.fb[i].seq)
		c.checkInst(&c.fb[i])
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
	if s := c.steps; f.hasStep && (f.stepIdx < s.base || f.stepIdx >= s.end) {
		c.bp.ReportViolation("Core.step", c.cycle,
			"instruction seq %d holds oracle step %d outside the window [%d, %d)", f.seq, f.stepIdx, s.base, s.end)
	}
}

// checkSched is the paranoid-mode scheduler invariant: the waiting,
// executing and ready slot sets must equal what a full ROB scan derives,
// with ready as the oracle for readiness.  A mismatch is recorded on the
// pipeline's violation list.
func (c *Core) checkSched() {
	n := len(c.rob)
	for j := 0; j < len(c.waitSet)*64; j++ {
		var wantW, wantE, wantR bool
		if j < n {
			age := j - c.robHead
			if age < 0 {
				age += n
			}
			if r := &c.rob[j]; age < c.robCount {
				wantW, wantE = r.state == 0, r.state == 1
				wantR = wantW && c.ready(r)
			}
		}
		if c.waitSet.has(j) != wantW || c.execSet.has(j) != wantE || c.readySet.has(j) != wantR {
			c.bp.ReportViolation("Core.step", c.cycle,
				"scheduler slot %d sets waiting=%v executing=%v ready=%v, ROB scan says %v/%v/%v [head=%d count=%d]",
				j, c.waitSet.has(j), c.execSet.has(j), c.readySet.has(j), wantW, wantE, wantR, c.robHead, c.robCount)
		}
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
				c.cfg.WatchdogCycles, c.cycle, c.fetchPC, c.robCount, c.fbLen(), len(c.inflight)))
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
