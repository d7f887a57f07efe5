// Package faults is the fault-injection layer of the robustness subsystem:
// a decorator implementing pred.Subcomponent that wraps any real library
// component and injects seeded, deterministic faults into the five interface
// signals — corrupted metadata blobs, dropped or duplicated update events,
// delayed (reordered) fire/repair events, and bit-flips in packet targets and
// directions.
//
// The injector exists to stress the composer's management structures (the
// circular history file, the forwards-walk repair state machine, the
// snapshot-repaired history providers) beyond well-behaved workloads: a
// framework that claims to recover correct state after misprediction should
// fail loudly — via the compose paranoid-mode invariant checker — rather than
// silently drift or panic when a component misbehaves.
//
// Determinism contract: every injection decision is drawn from a splitmix64
// stream seeded by Plan.Seed mixed with the wrapped component's name, and
// advanced only by that component's own predict/event traffic.  Given the
// same Plan and the same (single-goroutine) pipeline event sequence, the
// fault schedule — which events are hit, which kind fires, which bit flips —
// is bit-for-bit reproducible, independent of wall clock, worker count, or
// host.  Reset rewinds the stream to its initial state so a reset pipeline
// replays the identical schedule.
package faults

import (
	"fmt"
	"strings"
	"sync"

	"cobra/internal/pred"
	"cobra/internal/sram"
)

// Kind is a bitmask of injectable fault classes.
type Kind uint32

// The fault kinds the injector can produce.
const (
	// CorruptMeta flips one bit of the metadata blob handed back with an
	// event — modelling a corrupted history-file entry.  The flip is done in
	// place, so later events for the same prediction see the corrupted blob
	// too; paranoid mode catches this as a metadata round-trip violation.
	CorruptMeta Kind = 1 << iota
	// DropUpdate swallows a commit-time update event (lost learning).
	DropUpdate
	// DupUpdate delivers a commit-time update event twice (double training).
	DupUpdate
	// DelayFire holds a speculative fire event back and delivers it after
	// the component's next event — reordering fire against mispredict,
	// repair, or update.
	DelayFire
	// DelayRepair holds a repair event back and delivers it after the
	// component's next event — the dangerous reorder: state is restored
	// late, after younger activity already observed it.
	DelayRepair
	// FlipDirection inverts the predicted direction of one direction-valid
	// slot in the component's overlay.
	FlipDirection
	// FlipTarget flips one low-order bit of the predicted target of one
	// target-valid slot in the component's overlay.
	FlipTarget
)

// AllKinds enables every fault class.
const AllKinds = CorruptMeta | DropUpdate | DupUpdate | DelayFire |
	DelayRepair | FlipDirection | FlipTarget

var kindNames = []struct {
	k    Kind
	name string
}{
	{CorruptMeta, "corrupt-meta"},
	{DropUpdate, "drop-update"},
	{DupUpdate, "dup-update"},
	{DelayFire, "delay-fire"},
	{DelayRepair, "delay-repair"},
	{FlipDirection, "flip-direction"},
	{FlipTarget, "flip-target"},
}

func (k Kind) String() string {
	var parts []string
	for _, kn := range kindNames {
		if k&kn.k != 0 {
			parts = append(parts, kn.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// ParseKinds parses a comma- or pipe-separated list of fault-kind names
// ("corrupt-meta,drop-update", or "all") into a Kind mask.
func ParseKinds(s string) (Kind, error) {
	var out Kind
	for _, f := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == '|' }) {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if f == "all" {
			out |= AllKinds
			continue
		}
		found := false
		for _, kn := range kindNames {
			if f == kn.name {
				out |= kn.k
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("faults: unknown fault kind %q", f)
		}
	}
	return out, nil
}

// Record describes one injected fault, for test assertions and logging.
type Record struct {
	Component string
	Kind      Kind
	Cycle     uint64
	PC        uint64
}

// Plan describes a deterministic fault-injection campaign.  Wrap it into a
// pipeline via compose.Options.Wrap:
//
//	plan := &faults.Plan{Seed: 1, Period: 64, Kinds: faults.CorruptMeta}
//	opt := compose.Options{Wrap: plan.Wrap}
//
// A Plan may be shared across concurrently built pipelines: Wrap only reads
// the configuration and appends the new injector under a mutex.
type Plan struct {
	// Seed roots the per-component splitmix64 decision streams.
	Seed uint64
	// Period is the mean injection interval in opportunities: each predict
	// and each event is one opportunity, and roughly one in Period draws a
	// fault.  0 disables injection entirely.
	Period uint64
	// Kinds is the mask of fault classes to inject.
	Kinds Kind
	// Components, when non-empty, restricts injection to the named node
	// instances (case-insensitive, e.g. "TAGE3"); other components pass
	// through unwrapped.
	Components []string
	// OnFault, when non-nil, observes every injected fault.  Called from the
	// pipeline's goroutine; must not block.
	OnFault func(Record)

	mu        sync.Mutex
	injectors []*Injector
}

func (pl *Plan) wants(name string) bool {
	if len(pl.Components) == 0 {
		return true
	}
	for _, c := range pl.Components {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

// Wrap decorates a component with a fault injector per the plan.  Components
// outside the plan's scope (or with injection disabled) are returned as-is.
// The signature matches compose.Options.Wrap.
func (pl *Plan) Wrap(c pred.Subcomponent) pred.Subcomponent {
	if pl == nil || pl.Period == 0 || pl.Kinds == 0 || !pl.wants(c.Name()) {
		return c
	}
	in := &Injector{
		inner:  c,
		kinds:  pl.Kinds,
		period: pl.Period,
		seed:   splitmix(pl.Seed ^ nameHash(c.Name())),
		on:     pl.OnFault,
	}
	in.rng = in.seed
	pl.mu.Lock()
	pl.injectors = append(pl.injectors, in)
	pl.mu.Unlock()
	return in
}

// Injectors returns every injector the plan has wrapped so far.
func (pl *Plan) Injectors() []*Injector {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]*Injector(nil), pl.injectors...)
}

// Injected aggregates per-kind injection counts across all injectors.
func (pl *Plan) Injected() map[Kind]uint64 {
	out := map[Kind]uint64{}
	for _, in := range pl.Injectors() {
		for _, kn := range kindNames {
			if n := in.Injected(kn.k); n > 0 {
				out[kn.k] += n
			}
		}
	}
	return out
}

// TotalInjected is the total number of injected faults across all injectors.
func (pl *Plan) TotalInjected() uint64 {
	var n uint64
	for _, v := range pl.Injected() {
		n += v
	}
	return n
}

func nameHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Injector wraps one component instance and injects the plan's faults into
// its signal traffic.  It implements pred.Subcomponent; identity, storage
// and the local-history need are the wrapped component's.
type Injector struct {
	inner  pred.Subcomponent
	kinds  Kind
	period uint64
	seed   uint64 // initial stream state (for Reset)
	rng    uint64
	on     func(Record)

	counts  map[Kind]uint64
	delayed []delayedEvent // held-back fire/repair events, FIFO
}

type delayedEvent struct {
	fire bool // true = fire, false = repair
	ev   pred.Event
}

// Inner returns the wrapped component.
func (in *Injector) Inner() pred.Subcomponent { return in.inner }

// Injected returns how many faults of the given kind have fired.
func (in *Injector) Injected(k Kind) uint64 { return in.counts[k] }

func (in *Injector) draw() uint64 {
	in.rng = splitmix(in.rng)
	return in.rng
}

// inject decides whether a fault of kind k fires at this opportunity.  Every
// call advances the decision stream exactly once, keeping the schedule a pure
// function of (seed, component, traffic sequence).
func (in *Injector) inject(k Kind, cycle, pc uint64) bool {
	if in.kinds&k == 0 {
		return false
	}
	if in.draw()%in.period != 0 {
		return false
	}
	if in.counts == nil {
		in.counts = map[Kind]uint64{}
	}
	in.counts[k]++
	if in.on != nil {
		in.on(Record{Component: in.inner.Name(), Kind: k, Cycle: cycle, PC: pc})
	}
	return true
}

// Name implements pred.Subcomponent.
func (in *Injector) Name() string { return in.inner.Name() }

// Latency implements pred.Subcomponent.
func (in *Injector) Latency() int { return in.inner.Latency() }

// MetaWords implements pred.Subcomponent.
func (in *Injector) MetaWords() int { return in.inner.MetaWords() }

// NumInputs implements pred.Subcomponent.
func (in *Injector) NumInputs() int { return in.inner.NumInputs() }

// Budget implements pred.Subcomponent.
func (in *Injector) Budget() sram.Budget { return in.inner.Budget() }

// Tick implements pred.Subcomponent.
func (in *Injector) Tick(cycle uint64) { in.inner.Tick(cycle) }

// UsesLocalHistory implements pred.Subcomponent.
func (in *Injector) UsesLocalHistory() bool { return in.inner.UsesLocalHistory() }

// Mems implements pred.Subcomponent.
func (in *Injector) Mems() []*sram.Mem { return in.inner.Mems() }

// Reset implements pred.Subcomponent: the wrapped component returns to
// power-on state and the decision stream rewinds so the fault schedule
// replays identically.
func (in *Injector) Reset() {
	in.inner.Reset()
	in.rng = in.seed
	in.delayed = in.delayed[:0]
	in.counts = nil
}

// Predict implements pred.Subcomponent, optionally flipping a predicted
// direction or target bit in the component's overlay.
func (in *Injector) Predict(q *pred.Query) pred.Response {
	resp := in.inner.Predict(q)
	if in.inject(FlipDirection, q.Cycle, q.PC) {
		if i := in.pickSlot(resp.Overlay, func(p pred.Pred) bool { return p.DirValid }); i >= 0 {
			resp.Overlay[i].Taken = !resp.Overlay[i].Taken
		}
	}
	if in.inject(FlipTarget, q.Cycle, q.PC) {
		if i := in.pickSlot(resp.Overlay, func(p pred.Pred) bool { return p.TgtValid }); i >= 0 {
			resp.Overlay[i].Target ^= 1 << (in.draw() % 16)
		}
	}
	return resp
}

// pickSlot deterministically chooses an overlay slot satisfying ok, or -1.
func (in *Injector) pickSlot(pk pred.Packet, ok func(pred.Pred) bool) int {
	var cand []int
	for i := range pk {
		if ok(pk[i]) {
			cand = append(cand, i)
		}
	}
	if len(cand) == 0 {
		return -1
	}
	return cand[in.draw()%uint64(len(cand))]
}

// corruptMeta flips one bit of the event's metadata blob in place.
func (in *Injector) corruptMeta(e *pred.Event) {
	if len(e.Meta) == 0 {
		return
	}
	bit := in.draw() % uint64(64*len(e.Meta))
	e.Meta[bit/64] ^= 1 << (bit % 64)
}

// copyEvent snapshots an event for delayed delivery: the pipeline reuses the
// entry's Slots and Meta storage, so a held-back event must own its slices.
func copyEvent(e *pred.Event) pred.Event {
	cp := *e
	cp.Slots = append([]pred.SlotInfo(nil), e.Slots...)
	cp.Meta = append([]uint64(nil), e.Meta...)
	cp.GRaw = append([]uint64(nil), e.GRaw...)
	return cp
}

// flush delivers any held-back fire/repair events, oldest first.
func (in *Injector) flush() {
	for len(in.delayed) > 0 {
		d := in.delayed[0]
		in.delayed = in.delayed[1:]
		if d.fire {
			in.inner.Fire(&d.ev)
		} else {
			in.inner.Repair(&d.ev)
		}
	}
}

// Fire implements pred.Subcomponent.
func (in *Injector) Fire(e *pred.Event) {
	if in.inject(CorruptMeta, e.Cycle, e.PC) {
		in.corruptMeta(e)
	}
	if in.inject(DelayFire, e.Cycle, e.PC) {
		in.delayed = append(in.delayed, delayedEvent{fire: true, ev: copyEvent(e)})
		return
	}
	in.inner.Fire(e)
	in.flush()
}

// Mispredict implements pred.Subcomponent.
func (in *Injector) Mispredict(e *pred.Event) {
	if in.inject(CorruptMeta, e.Cycle, e.PC) {
		in.corruptMeta(e)
	}
	in.inner.Mispredict(e)
	in.flush()
}

// Repair implements pred.Subcomponent.
func (in *Injector) Repair(e *pred.Event) {
	if in.inject(CorruptMeta, e.Cycle, e.PC) {
		in.corruptMeta(e)
	}
	if in.inject(DelayRepair, e.Cycle, e.PC) {
		in.delayed = append(in.delayed, delayedEvent{fire: false, ev: copyEvent(e)})
		return
	}
	in.inner.Repair(e)
	in.flush()
}

// Update implements pred.Subcomponent.
func (in *Injector) Update(e *pred.Event) {
	if in.inject(CorruptMeta, e.Cycle, e.PC) {
		in.corruptMeta(e)
	}
	if in.inject(DropUpdate, e.Cycle, e.PC) {
		in.flush()
		return
	}
	in.inner.Update(e)
	if in.inject(DupUpdate, e.Cycle, e.PC) {
		in.inner.Update(e)
	}
	in.flush()
}
