package compose

import (
	"fmt"
	"os"

	"cobra/internal/components"
	"cobra/internal/history"
	"cobra/internal/obs"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// GHRPolicy selects how the pipeline treats refinements of a packet's global
// history contribution that arrive from deeper pipeline stages without a
// next-PC change — the design axis §VI-B explores.
type GHRPolicy int

const (
	// GHRRepair rewrites the speculative global history when a deeper stage
	// refines a packet's branch set/directions, but lets younger in-flight
	// fetches (made with the stale history) continue — the paper's original
	// design.
	GHRRepair GHRPolicy = iota
	// GHRRepairReplay additionally squashes and replays younger fetches so
	// their predictions use the corrected history; costs bubbles, improves
	// accuracy (the paper's alternate design: +15% IPC, -25% mispredicts on
	// SPEC, but -3% IPC on Dhrystone).
	GHRRepairReplay
	// GHRNoRepair leaves stale bits in place entirely (ablation; strictly
	// worse, quantifying why history providers need repair at all).
	GHRNoRepair
)

func (p GHRPolicy) String() string {
	switch p {
	case GHRRepair:
		return "repair"
	case GHRRepairReplay:
		return "repair+replay"
	case GHRNoRepair:
		return "no-repair"
	}
	return "unknown"
}

// Options configure the generated management structures.
type Options struct {
	GHistBits     uint // global history register length (default 64)
	LocalEntries  int  // local history table rows (default 256)
	LocalHistBits uint // bits per local history (default 32)
	PathBits      uint // path history length (default 16)
	HFEntries     int  // history file capacity (default 32)
	GHRPolicy     GHRPolicy

	// Paranoid enables the invariant checker: after every pipeline operation
	// the history file, history providers, and metadata round-trips are
	// validated, and violations are recorded as structured errors (see
	// Violations).  Observation-only — predictions are unaffected.  Also
	// forced on by the COBRA_PARANOID environment variable (any value except
	// "" and "0"), so CI can sweep the whole test suite under checking.
	Paranoid bool

	// Wrap, when non-nil, decorates every instantiated sub-component before
	// it is wired into the pipeline (after validation).  The hook is how the
	// fault-injection layer (internal/faults) interposes on component signal
	// traffic without the composer importing it.
	Wrap func(pred.Subcomponent) pred.Subcomponent

	// Observer, when non-nil, receives a typed obs.Event for every pipeline
	// event: one record per sub-component for each predict, fire,
	// mispredict, repair, and update signal, plus one per squashed
	// history-file entry.  Mirrors Wrap: the sink is pluggable without the
	// composer knowing what consumes the stream.  Nil costs a single
	// pointer check per pipeline operation — the disabled path is the
	// exact pre-observability instruction sequence.
	Observer obs.Observer
}

func (o Options) withDefaults() Options {
	if o.GHistBits == 0 {
		o.GHistBits = 64
	}
	if o.LocalEntries == 0 {
		o.LocalEntries = 256
	}
	if o.LocalHistBits == 0 {
		o.LocalHistBits = 32
	}
	if o.PathBits == 0 {
		o.PathBits = 16
	}
	if o.HFEntries == 0 {
		o.HFEntries = 32
	}
	if v := os.Getenv("COBRA_PARANOID"); v != "" && v != "0" {
		o.Paranoid = true
	}
	return o
}

// Counters exposes the pipeline's event statistics.
type Counters struct {
	Queries     uint64
	Accepts     uint64
	ReAccepts   uint64
	HistRepairs uint64 // younger-preserving GHR reshifts (GHRRepair)
	Mispredicts uint64
	Commits     uint64
	Squashed    uint64 // entries squashed by mispredicts/redirects
	StaleEvents uint64 // resolve/commit calls on dead entries (model audit)
}

// pnode is an instantiated topology node.
type pnode struct {
	comp    pred.Subcomponent
	name    string
	lat     int
	inputs  []int // indices into Pipeline.nodes
	primary int   // inputs[0] or -1
}

// Pipeline is a complete COBRA-generated predictor pipeline: instantiated
// sub-components wired per the topology, plus generated history providers,
// history file, and repair state machine.  It is the drop-in unit a host
// core's fetch unit drives (§IV-C).
type Pipeline struct {
	Cfg  pred.Config
	Opt  Options
	Topo *Topology

	nodes   []pnode
	rootIdx int
	depth   int

	Global *history.Global
	Local  *history.Local // nil when no component consumes local history
	PathH  *history.Path

	hf *historyFile
	C  Counters

	// paranoid-mode state (see paranoid.go).
	paranoid     bool
	violations   []*InvariantError
	vioTotal     uint64
	shiftScratch []uint64 // applyShifts destination, reused across checks

	// observability (see internal/obs): obsv mirrors Opt.Observer for the
	// hot-path nil checks; trackOps records each node's raw direction
	// opinion per slot into entries for per-provider H2P attribution.
	obsv     obs.Observer
	trackOps bool

	// The stage plan (see planStages) and the scratch buffers reused
	// across Predict calls.
	plan    []stageOp     // the copy/overlay work of one query, in evaluation order
	final   []pred.Packet // per stage: the root's packet (owned or aliased)
	ovl     []pred.Packet // per node: the raw overlay it returned this query
	zeroPkt pred.Packet   // read-only all-empty packet
	metaOff []int         // per node: offset into the per-entry meta arena; [len(nodes)] is its size

	// q and ev are the reusable signal payloads handed to sub-components
	// (passing a pointer into an interface method would otherwise heap-
	// allocate a fresh Query/Event per node per operation).  Components
	// receive them for the duration of one call only; none retain them,
	// which the conformance suite's alloc pins police indirectly.
	q  pred.Query
	ev pred.Event

	// clock is the tick word every SRAM of the pipeline counts port use
	// against (see sram.Mem.Attach); Tick advances it when the cycle
	// changes, and cycle is the cycle it last saw.
	clock uint64
	cycle uint64
}

// Resolution is the outcome of resolving one branch slot.
type Resolution struct {
	Mispredict bool
	DirMisp    bool // wrong direction (conditional branch)
	TgtMisp    bool // right direction, wrong/unknown target
	Redirect   uint64
}

// New builds a pipeline for the topology using the component registry.
func New(cfg pred.Config, topo *Topology, opt Options) (*Pipeline, error) {
	if !cfg.Valid() {
		return nil, fmt.Errorf("compose: invalid fetch geometry %+v", cfg)
	}
	opt = opt.withDefaults()
	p := &Pipeline{
		Cfg:    cfg,
		Opt:    opt,
		Topo:   topo,
		Global: history.NewGlobal(opt.GHistBits),
		PathH:  history.NewPath(opt.PathBits),
	}
	env := components.Env{Cfg: cfg, Global: p.Global}
	order := topo.Nodes() // inputs-first
	if len(order) > maxNodes {
		return nil, fmt.Errorf("compose: topology has %d nodes; provider IDs allow at most %d", len(order), maxNodes)
	}
	index := map[*Node]int{}
	usesLocal := false
	for _, n := range order {
		env.ID = pred.Provider(len(p.nodes) + 1)
		comp, err := components.Build(env, n.Name)
		if err != nil {
			return nil, err
		}
		if err := pred.Validate(comp); err != nil {
			return nil, err
		}
		if opt.Wrap != nil {
			comp = opt.Wrap(comp)
			if comp == nil {
				return nil, fmt.Errorf("compose: Options.Wrap returned nil for %s", n.Name)
			}
			if err := pred.Validate(comp); err != nil {
				return nil, fmt.Errorf("compose: wrapped %s: %w", n.Name, err)
			}
		}
		if comp.NumInputs() >= 2 && len(n.Inputs) != comp.NumInputs() {
			return nil, fmt.Errorf("compose: %s is an arbitration scheme needing %d inputs, topology provides %d",
				n.Name, comp.NumInputs(), len(n.Inputs))
		}
		if len(n.Inputs) > comp.NumInputs() {
			return nil, fmt.Errorf("compose: %s accepts %d predict_in edges, topology provides %d",
				n.Name, comp.NumInputs(), len(n.Inputs))
		}
		pn := pnode{comp: comp, name: n.Name, lat: comp.Latency(), primary: -1}
		for _, in := range n.Inputs {
			pn.inputs = append(pn.inputs, index[in])
		}
		if len(pn.inputs) > 0 {
			pn.primary = pn.inputs[0]
		}
		index[n] = len(p.nodes)
		p.nodes = append(p.nodes, pn)
		if pn.lat > p.depth {
			p.depth = pn.lat
		}
		if comp.UsesLocalHistory() {
			usesLocal = true
		}
	}
	p.rootIdx = index[topo.Root]
	if usesLocal {
		p.Local = history.NewLocal(opt.LocalEntries, opt.LocalHistBits, cfg.PktOff())
	}
	p.attachClock()
	p.hf = newHistoryFile(opt.HFEntries, cfg.FetchWidth)
	p.zeroPkt = make(pred.Packet, cfg.FetchWidth)
	p.planStages()
	p.ovl = make([]pred.Packet, len(p.nodes))
	p.metaOff = make([]int, len(p.nodes)+1)
	for i, n := range p.nodes {
		p.metaOff[i+1] = p.metaOff[i] + n.comp.MetaWords()
	}
	p.paranoid = opt.Paranoid
	p.obsv = opt.Observer
	return p, nil
}

// Observer returns the attached event observer (nil when tracing is off);
// the host core uses it to emit frontend redirect records onto the same
// stream.
func (p *Pipeline) Observer() obs.Observer { return p.obsv }

// EnableOpinionTracking makes Predict record every node's own direction
// opinion per slot into the history-file entry, enabling SlotOpinions.
// Costs one byte copy per node per slot per prediction; off by default.
func (p *Pipeline) EnableOpinionTracking() { p.trackOps = true }

// SlotOpinions appends each sub-component's predict-time direction opinion
// for one slot of e's packet to dst (reusing its backing array) and returns
// it.  Empty unless EnableOpinionTracking was called before the prediction.
func (p *Pipeline) SlotOpinions(e *Entry, slot int, dst []obs.Opinion) []obs.Opinion {
	dst = dst[:0]
	if len(e.ops) == 0 || slot < 0 || slot >= p.Cfg.FetchWidth {
		return dst
	}
	for ni, n := range p.nodes {
		b := e.ops[ni*p.Cfg.FetchWidth+slot]
		dst = append(dst, obs.Opinion{Comp: n.name, DirValid: b&1 != 0, Taken: b&2 != 0})
	}
	return dst
}

// emit sends one typed record to the attached observer (caller checks
// p.obsv != nil so the disabled path never builds the event).
func (p *Pipeline) emit(kind obs.Kind, cycle uint64, e *Entry, comp string, slot, dur int, sum uint64) {
	ev := obs.Event{
		Cycle: cycle, PC: e.PC, Seq: e.seq, MetaSum: sum,
		Kind: kind, Slot: int16(slot), Dur: uint16(dur), Comp: comp,
	}
	p.obsv.Event(&ev)
}

// Depth is the pipeline depth (slowest component's latency).
func (p *Pipeline) Depth() int { return p.depth }

// Components returns the instantiated sub-components in topological order.
func (p *Pipeline) Components() []pred.Subcomponent {
	out := make([]pred.Subcomponent, len(p.nodes))
	for i, n := range p.nodes {
		out[i] = n.comp
	}
	return out
}

// attachClock points every memory of the pipeline — each component's
// Mems() and the local-history table — at the pipeline's clock word, so
// Tick reaches them all with one store.
func (p *Pipeline) attachClock() {
	for _, n := range p.nodes {
		for _, m := range n.comp.Mems() {
			m.Attach(&p.clock)
		}
	}
	if p.Local != nil {
		for _, m := range p.Local.Mems() {
			m.Attach(&p.clock)
		}
	}
}

// Tick advances the SRAM port accounting of every component to cycle.
// The memories share the pipeline's clock word and restart their
// per-cycle counts on their next access, so no component is called;
// pred.Subcomponent.Tick is left to components driven without a pipeline.
func (p *Pipeline) Tick(cycle uint64) {
	if cycle != p.cycle {
		p.cycle = cycle
		p.clock++
	}
}

// Full reports whether the history file has no free entry (fetch must
// stall — FTQ backpressure).
func (p *Pipeline) Full() bool { return p.hf.full() }

// InFlight returns the number of live history file entries.
func (p *Pipeline) InFlight() int { return p.hf.count }

// Oldest returns the oldest in-flight entry (commit candidate), or nil.
func (p *Pipeline) Oldest() *Entry { return p.hf.oldest() }

// overlayInto writes over[i] applied on base[i] into dst (no allocation):
// the per-slot pred.Pred.OverlayOn, done in place.  Each slot is copied from
// base and then only over's valid field groups are patched through pointers,
// in OverlayOn's order, so no slot is built in a temporary first.  dst must
// not alias over.
func overlayInto(dst, over, base pred.Packet) {
	for i := range dst {
		d, o := &dst[i], &over[i]
		*d = base[i]
		if o.DirValid {
			d.DirValid, d.Taken, d.DirProvider = true, o.Taken, o.DirProvider
		}
		if o.TgtValid {
			d.TgtValid, d.Target, d.TgtProvider = true, o.Target, o.TgtProvider
		}
		if o.IsCFI {
			d.IsCFI = true
		}
		if o.Kind != pred.KindNone {
			d.Kind = o.Kind
		}
	}
}

// maxNodes is the largest topology a pipeline can number: provider IDs are
// uint16 and ID 0 is reserved for "no provider".
const maxNodes = 1<<16 - 1

// ProviderName returns the topology node name behind a provider ID carried
// by this pipeline's predictions, or "" for ID 0 (no component provided the
// field) and for IDs this pipeline never issued.  IDs are pipeline-scoped,
// so names are resolved only where attribution leaves the pipeline.
func (p *Pipeline) ProviderName(id pred.Provider) string {
	if id == 0 || int(id) > len(p.nodes) {
		return ""
	}
	return p.nodes[id-1].name
}

// stageOp is one step of the stage plan: at some stage, a node either
// responds (its component predicts and the answer is overlaid on the primary
// input) or re-pins the overlay it answered earlier over a primary input
// that changed at this stage.
type stageOp struct {
	node    int
	respond bool
	dst     pred.Packet   // the node's own packet for this stage
	prim    pred.Packet   // the primary input's packet for this stage (zeroPkt for leaves)
	in      []pred.Packet // respond: every input's packet for this stage, in edge order
}

// planStages compiles the depth x node evaluation of Predict once, at build
// time.  Each node's packet at stage d is
//
//   - the primary input's stage-d packet while d < latency (pass-through),
//   - the component's answer overlaid on the primary input at d == latency,
//   - that answer re-pinned over the primary input for d > latency.
//
// Only the second kind, and the third where the primary input's packet
// changed at d, compute anything; every other packet is an alias of one
// that does — the primary input's, the node's own from stage d-1, or
// zeroPkt — because its contents would be a byte-for-byte copy.  Each owned
// buffer is written by exactly one op per query, and the ops run stage by
// stage in topological order, so every alias is read after its one write:
// the plan yields the same packets as evaluating every (stage, node) pair.
// Aliased packets are read-only, as components already treat Query.In.
func (p *Pipeline) planStages() {
	outs := make([][]pred.Packet, len(p.nodes)) // per node, per stage
	for ni := range outs {
		outs[ni] = make([]pred.Packet, p.depth)
	}
	for d := 1; d <= p.depth; d++ {
		for ni, n := range p.nodes {
			prim, primPrev := p.zeroPkt, p.zeroPkt
			if n.primary >= 0 {
				prim = outs[n.primary][d-1]
				if d > 1 {
					primPrev = outs[n.primary][d-2]
				}
			}
			switch {
			case d < n.lat:
				outs[ni][d-1] = prim
			case d > n.lat && &prim[0] == &primPrev[0]:
				outs[ni][d-1] = outs[ni][d-2]
			default:
				op := stageOp{node: ni, respond: d == n.lat,
					dst: make(pred.Packet, p.Cfg.FetchWidth), prim: prim}
				if op.respond {
					for _, ii := range n.inputs {
						op.in = append(op.in, outs[ii][d-1])
					}
				}
				outs[ni][d-1] = op.dst
				p.plan = append(p.plan, op)
			}
		}
	}
	p.final = outs[p.rootIdx]
}

// Predict issues the predict event for the fetch packet at pc (§III-E) and
// returns the allocated history-file entry plus the final prediction at
// every stage 1..Depth (stages[d-1] is what the pipeline redirects on d
// cycles after the query — the staged overriding of §IV-B).  Returns nil
// when the history file is full.
//
// The returned stage vector is owned by the entry: it stays valid until the
// entry dies (commit or squash) and its history-file slot is reallocated to
// a later prediction.  The frontend's fetch-packet window always drops its
// reference no later than that, so steady-state prediction allocates
// nothing once the ring's per-entry buffers are warm.
func (p *Pipeline) Predict(cycle uint64, pc uint64) (*Entry, []pred.Packet) {
	if p.hf.full() {
		return nil, nil
	}
	p.C.Queries++
	e := p.hf.alloc()
	e.PC = p.Cfg.PacketBase(pc)
	p.Global.SnapshotInto(&e.preSnap)
	e.prePath = p.PathH.Snapshot()
	e.ghistLow = p.Global.Bits(64)
	e.path = p.PathH.Bits()
	if p.Local != nil {
		e.lhist = p.Local.Read(e.PC)
	}
	if e.metas == nil {
		// The entry's metadata arena and each node's view of it, built once:
		// a view is re-sliced only for a component that answers with a
		// different word count than it declared.
		e.metaBuf = make([]uint64, p.metaOff[len(p.nodes)])
		e.metas = make([][]uint64, len(p.nodes))
		for ni := range e.metas {
			e.metas[ni] = e.metaBuf[p.metaOff[ni]:p.metaOff[ni+1]]
		}
	}

	graw := e.preSnap.Hist()
	for i := range p.plan {
		op := &p.plan[i]
		ni := op.node
		if !op.respond {
			// d > lat: the component's own overlay stays pinned over the
			// refined input (monotone refinement, §III-A).
			overlayInto(op.dst, p.ovl[ni], op.prim)
			continue
		}
		n := &p.nodes[ni]
		q := &p.q
		q.Cycle, q.PC = cycle, e.PC
		q.GHist, q.GRaw, q.LHist, q.Path = 0, nil, 0, 0
		if n.lat >= 2 {
			// Histories arrive at the end of Fetch-1 (§III-B): latency-1
			// components never see them.
			q.GHist = e.ghistLow
			q.GRaw = graw
			q.LHist = e.lhist
			q.Path = e.path
		}
		q.In = op.in
		resp := n.comp.Predict(q)
		// Persist the metadata in the entry's arena (components may reuse
		// their returned buffers on the next predict).  A word loop, not
		// copy: the few words do not pay for a runtime call.
		dst := e.metas[ni]
		if len(dst) != len(resp.Meta) {
			dst = e.metaBuf[p.metaOff[ni] : p.metaOff[ni]+len(resp.Meta)]
			e.metas[ni] = dst
		}
		for j := range dst {
			dst[j] = resp.Meta[j]
		}
		p.ovl[ni] = resp.Overlay
		overlayInto(op.dst, resp.Overlay, op.prim)
		if p.obsv != nil {
			p.emit(obs.KPredict, cycle, e, n.name, -1, n.lat, obs.MetaSum(dst))
		}
	}
	if len(e.stages) != p.depth {
		e.stages = make([]pred.Packet, p.depth)
		for d := range e.stages {
			e.stages[d] = make(pred.Packet, p.Cfg.FetchWidth)
		}
	}
	for d, st := range e.stages { // element loops too: a few slots per stage
		src := p.final[d]
		for i := range st {
			st[i] = src[i]
		}
	}
	if p.trackOps {
		// Snapshot every node's raw overlay opinion per slot (the ovl
		// buffers are reused next query) for per-provider H2P attribution.
		need := len(p.nodes) * p.Cfg.FetchWidth
		if cap(e.ops) < need {
			e.ops = make([]uint8, need)
		}
		e.ops = e.ops[:need]
		for ni := range p.nodes {
			ovl := p.ovl[ni]
			for s := 0; s < p.Cfg.FetchWidth; s++ {
				var b uint8
				if s < len(ovl) && ovl[s].DirValid {
					b = 1
					if ovl[s].Taken {
						b |= 2
					}
				}
				e.ops[ni*p.Cfg.FetchWidth+s] = b
			}
		}
	}
	if p.paranoid {
		// Pin the §III-D round-trip contract: each component's blob must come
		// back verbatim with every later event for this prediction.
		e.metaSums = e.metaSums[:0]
		for ni := range p.nodes {
			e.metaSums = append(e.metaSums, metaSum(e.metas[ni]))
		}
		p.checkInvariants("Predict", cycle)
	}
	return e, e.stages
}

// event fills the pipeline's reusable §III-E event payload for entry e and
// returns it; the caller sets Meta to each node's metadata before handing
// it on.  Components treat the payload as read-only (the conformance suite
// checks it), so one fill serves every node of an operation.
func (p *Pipeline) event(cycle uint64, e *Entry) *pred.Event {
	ev := &p.ev
	ev.Cycle, ev.PC = cycle, e.PC
	ev.GHist, ev.GRaw, ev.LHist, ev.Path = e.ghistLow, e.preSnap.Hist(), e.lhist, e.path
	ev.Slots = e.Slots
	return ev
}

// Accept installs the frontend's accepted view of the packet (initially the
// stage-1 prediction) and performs the speculative state updates: local and
// global history shifts for each predicted branch, path history, and the
// fire event to every sub-component (§III-E).
func (p *Pipeline) Accept(cycle uint64, e *Entry, used pred.Packet, slots []pred.SlotInfo, cfiIdx int, nextPC uint64) {
	p.C.Accepts++
	e.Used = used
	copy(e.Slots, slots)
	for i := range e.Slots {
		e.Slots[i].PredTaken = e.Slots[i].Taken
	}
	e.CfiIdx = cfiIdx
	e.NextPC = nextPC
	p.fire(cycle, e, true)
	p.checkInvariants("Accept", cycle)
}

// fire performs the speculative updates for e's current view.  shiftGlobal
// is false only for the GHRNoRepair re-accept path, which deliberately
// leaves stale bits in the global history.
func (p *Pipeline) fire(cycle uint64, e *Entry, shiftGlobal bool) {
	end := p.Cfg.FetchWidth - 1
	if e.CfiIdx >= 0 && e.CfiIdx < end {
		end = e.CfiIdx
	}
	e.shifts = e.shifts[:0]
	for i := 0; i <= end; i++ {
		s := e.Slots[i]
		if !s.Valid || !s.IsBranch {
			continue
		}
		if p.Local != nil {
			old := p.Local.SpecUpdate(s.PC, s.Taken)
			e.lhistSaves = append(e.lhistSaves, lhistSave{pc: s.PC, old: old})
		}
		if shiftGlobal {
			p.Global.Shift(s.Taken)
			e.shifts = append(e.shifts, s.Taken)
		}
	}
	if shiftGlobal && e.CfiIdx >= 0 && e.Slots[e.CfiIdx].Valid && e.Slots[e.CfiIdx].Taken {
		p.PathH.Shift(e.NextPC, p.Cfg.InstOff())
	}
	ev := p.event(cycle, e)
	for ni := range p.nodes {
		n := &p.nodes[ni]
		ev.Meta = e.metas[ni]
		n.comp.Fire(ev)
		if p.obsv != nil {
			p.emit(obs.KFire, cycle, e, n.name, e.CfiIdx, 0, obs.MetaSum(e.metas[ni]))
		}
	}
	e.fired = true
}

// unfire reverses e's speculative updates: repair events to every component
// (restoring loop/local component state from metadata) and local-history
// restore, in reverse order.  The global history register is restored by the
// caller via snapshots.
func (p *Pipeline) unfire(cycle uint64, e *Entry) {
	if !e.fired {
		return
	}
	ev := p.event(cycle, e)
	for ni := range p.nodes {
		n := &p.nodes[ni]
		ev.Meta = e.metas[ni]
		n.comp.Repair(ev)
		if p.obsv != nil {
			p.emit(obs.KRepair, cycle, e, n.name, e.CfiIdx, 0, obs.MetaSum(e.metas[ni]))
		}
	}
	for i := len(e.lhistSaves) - 1; i >= 0; i-- {
		sv := e.lhistSaves[i]
		p.Local.Restore(sv.pc, sv.old)
	}
	e.lhistSaves = e.lhistSaves[:0]
	e.fired = false
}

// squashYounger removes every entry younger than e, running the repair walk
// (youngest first, so local history restores compose to the oldest saved
// values — equivalent to the paper's forwards-walk restore).
func (p *Pipeline) squashYounger(cycle uint64, e *Entry) {
	for {
		y := p.hf.youngest()
		if y == nil || y.seq <= e.seq {
			return
		}
		p.unfire(cycle, y)
		p.hf.popYoungest()
		p.C.Squashed++
		if p.obsv != nil {
			p.emit(obs.KSquash, cycle, y, "", -1, 0, 0)
		}
	}
}

// ReAccept refines the accepted view of in-flight entry e when a deeper
// stage (or pre-decode) responds.  squashYounger=true is the redirect path
// (next-PC changed, or GHRRepairReplay forcing a fetch replay): younger
// entries are squashed and must be refetched.  With squashYounger=false the
// behaviour follows the pipeline's GHRPolicy: GHRRepair rewrites the
// speculative history beneath the surviving younger entries; GHRNoRepair
// leaves the stale bits.
func (p *Pipeline) ReAccept(cycle uint64, e *Entry, used pred.Packet, slots []pred.SlotInfo, cfiIdx int, nextPC uint64, squashYounger bool) {
	p.C.ReAccepts++
	if squashYounger {
		p.squashYounger(cycle, e)
	}
	p.unfire(cycle, e)
	repairGlobal := squashYounger || p.Opt.GHRPolicy != GHRNoRepair
	if repairGlobal {
		p.Global.Restore(e.preSnap)
		p.PathH.Restore(e.prePath)
	}
	e.Used = used
	copy(e.Slots, slots)
	for i := range e.Slots {
		e.Slots[i].PredTaken = e.Slots[i].Taken
	}
	e.CfiIdx = cfiIdx
	e.NextPC = nextPC
	p.fire(cycle, e, repairGlobal)
	if repairGlobal && !squashYounger {
		// Younger entries' speculative bits were wiped by the restore;
		// re-shift them on top of the corrected contribution (the repair-
		// without-replay design: their *predictions* stay stale, their
		// history bits are preserved).
		p.C.HistRepairs++
		p.hf.forwardFrom(e, func(y *Entry) {
			p.Global.SnapshotInto(&y.preSnap)
			y.prePath = p.PathH.Snapshot()
			for _, b := range y.shifts {
				p.Global.Shift(b)
			}
			if y.CfiIdx >= 0 && y.Slots[y.CfiIdx].Valid && y.Slots[y.CfiIdx].Taken {
				p.PathH.Shift(y.NextPC, p.Cfg.InstOff())
			}
		})
	}
	p.checkInvariants("ReAccept", cycle)
}

// Resolve records the execution outcome of the branch in e's slot and, on a
// misprediction, runs the full repair sequence: squash younger entries
// (forwards-walk repair), restore histories, re-fire this packet's corrected
// contribution, and deliver the fast mispredict event to every component.
func (p *Pipeline) Resolve(cycle uint64, e *Entry, slot int, taken bool, target uint64) Resolution {
	if !e.valid {
		p.C.StaleEvents++
		return Resolution{}
	}
	s := &e.Slots[slot]
	predTaken := s.PredTaken
	dirMisp := s.IsBranch && predTaken != taken
	tgtMisp := false
	if taken && !dirMisp {
		// Predicted taken: the accepted next PC must match the real target.
		tgtMisp = e.CfiIdx != slot || e.NextPC != target
	}
	s.Taken = taken
	s.Target = target
	misp := dirMisp || tgtMisp
	s.Mispredicted = misp
	if !misp {
		p.checkInvariants("Resolve", cycle)
		return Resolution{}
	}
	p.C.Mispredicts++
	p.squashYounger(cycle, e)
	p.unfire(cycle, e)
	p.Global.Restore(e.preSnap)
	p.PathH.Restore(e.prePath)
	// Truncate the packet at the resolved branch: younger slots were either
	// never fetched (predicted taken) or are now wrong-path (predicted
	// not-taken, actually taken).
	for i := slot + 1; i < len(e.Slots); i++ {
		e.Slots[i] = pred.SlotInfo{}
	}
	e.CfiIdx = slot
	if taken {
		e.NextPC = target
	} else {
		e.NextPC = s.PC + uint64(p.Cfg.InstBytes)
	}
	p.fire(cycle, e, true)
	ev := p.event(cycle, e)
	for ni := range p.nodes {
		n := &p.nodes[ni]
		ev.Meta = e.metas[ni]
		n.comp.Mispredict(ev)
		if p.obsv != nil {
			p.emit(obs.KMispredict, cycle, e, n.name, slot, 0, obs.MetaSum(e.metas[ni]))
		}
	}
	p.checkInvariants("Resolve", cycle)
	return Resolution{
		Mispredict: true,
		DirMisp:    dirMisp,
		TgtMisp:    tgtMisp,
		Redirect:   e.NextPC,
	}
}

// Commit retires the oldest entry: commit-time update events to every
// component (§III-E), then dequeue (§IV-B.1).
func (p *Pipeline) Commit(cycle uint64, e *Entry) {
	if !e.valid {
		p.C.StaleEvents++
		return
	}
	if p.hf.oldest() != e {
		panic("compose: Commit on non-oldest history file entry")
	}
	ev := p.event(cycle, e)
	for ni := range p.nodes {
		n := &p.nodes[ni]
		ev.Meta = e.metas[ni]
		n.comp.Update(ev)
		if p.obsv != nil {
			p.emit(obs.KUpdate, cycle, e, n.name, e.CfiIdx, 0, obs.MetaSum(e.metas[ni]))
		}
	}
	p.hf.dequeue()
	p.C.Commits++
	p.checkInvariants("Commit", cycle)
}

// SquashAll drops every in-flight entry (pipeline flush, e.g. exception).
func (p *Pipeline) SquashAll(cycle uint64) {
	if p.hf.empty() {
		return
	}
	oldest := p.hf.oldest()
	p.squashYounger(cycle, oldest)
	p.unfire(cycle, oldest)
	p.Global.Restore(oldest.preSnap)
	p.PathH.Restore(oldest.prePath)
	p.hf.popYoungest()
	p.C.Squashed++
	if p.obsv != nil {
		p.emit(obs.KSquash, cycle, oldest, "", -1, 0, 0)
	}
	p.checkInvariants("SquashAll", cycle)
}

// Reset returns the pipeline and all components to power-on state.
func (p *Pipeline) Reset() {
	for _, n := range p.nodes {
		n.comp.Reset()
	}
	p.Global.Reset()
	p.PathH.Reset()
	if p.Local != nil {
		p.Local.Reset()
	}
	p.hf = newHistoryFile(p.Opt.HFEntries, p.Cfg.FetchWidth)
	p.C = Counters{}
	p.violations = nil
	p.vioTotal = 0
}

// ComponentBudgets returns each sub-component's storage, keyed by node name.
func (p *Pipeline) ComponentBudgets() map[string]sram.Budget {
	out := make(map[string]sram.Budget, len(p.nodes))
	for _, n := range p.nodes {
		out[n.name] = n.comp.Budget()
	}
	return out
}

// ManagementBudget returns the storage of the generated management
// structures (§IV-B.1): history providers plus the history file, the "Meta"
// bars of Fig. 8.
func (p *Pipeline) ManagementBudget() sram.Budget {
	b := p.Global.Budget()
	b = b.Add(p.PathH.Budget())
	if p.Local != nil {
		b = b.Add(p.Local.Budget())
	}
	// History file: per entry, the global snapshot (register + folds), path
	// and local histories, metadata words, per-slot prediction state, and
	// the PC/seq bookkeeping.
	snapBits := p.Global.Budget().FlopBits
	metaBits := 0
	for _, n := range p.nodes {
		metaBits += n.comp.MetaWords() * 64
	}
	perSlot := p.Cfg.FetchWidth * (2 + 40 + 8)
	entryBits := snapBits + int(p.Opt.PathBits) + int(p.Opt.LocalHistBits) + metaBits + perSlot + 64
	b.Mems = append(b.Mems, sram.Spec{
		Name:       "history_file",
		Entries:    p.Opt.HFEntries,
		Width:      entryBits,
		ReadPorts:  1,
		WritePorts: 1,
	})
	return b
}
