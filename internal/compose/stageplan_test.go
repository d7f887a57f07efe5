package compose

import (
	"math/rand"
	"reflect"
	"testing"

	"cobra/internal/obs"
	"cobra/internal/pred"
)

// referencePredict is Predict with the stage plan written out literally:
// every (stage, node) pair is evaluated in turn into a buffer of its own —
// pass-through copies below the node's latency, the component's answer at
// it, the pinned overlay above it.  It is the oracle the plan's aliasing is
// checked against, and keeps every side effect of Predict (history-file
// allocation, snapshots, metadata, paranoid checksums).
func referencePredict(p *Pipeline, cycle, pc uint64) (*Entry, []pred.Packet) {
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
		e.metas = make([][]uint64, len(p.nodes))
	}
	if e.metaBuf == nil {
		e.metaBuf = make([]uint64, p.metaOff[len(p.nodes)])
	}
	outs := make([][]pred.Packet, len(p.nodes))
	for ni := range outs {
		outs[ni] = make([]pred.Packet, p.depth)
		for d := range outs[ni] {
			outs[ni][d] = make(pred.Packet, p.Cfg.FetchWidth)
		}
	}
	ovl := make([]pred.Packet, len(p.nodes))
	graw := e.preSnap.Hist()
	for d := 1; d <= p.depth; d++ {
		for ni, n := range p.nodes {
			prim := make(pred.Packet, p.Cfg.FetchWidth)
			if n.primary >= 0 {
				prim = outs[n.primary][d-1]
			}
			switch {
			case d < n.lat:
				copy(outs[ni][d-1], prim)
			case d == n.lat:
				q := &pred.Query{Cycle: cycle, PC: e.PC}
				if n.lat >= 2 {
					q.GHist, q.GRaw, q.LHist, q.Path = e.ghistLow, graw, e.lhist, e.path
				}
				for _, ii := range n.inputs {
					q.In = append(q.In, outs[ii][d-1])
				}
				resp := n.comp.Predict(q)
				dst := e.metaBuf[p.metaOff[ni] : p.metaOff[ni]+len(resp.Meta)]
				copy(dst, resp.Meta)
				e.metas[ni] = dst
				ovl[ni] = resp.Overlay
				overlayRef(outs[ni][d-1], resp.Overlay, prim)
				if p.obsv != nil {
					p.emit(obs.KPredict, cycle, e, n.name, -1, n.lat, obs.MetaSum(dst))
				}
			default:
				overlayRef(outs[ni][d-1], ovl[ni], prim)
			}
		}
	}
	e.stages = make([]pred.Packet, p.depth)
	for d := range e.stages {
		e.stages[d] = append(pred.Packet(nil), outs[p.rootIdx][d]...)
	}
	if p.paranoid {
		e.metaSums = e.metaSums[:0]
		for ni := range p.nodes {
			e.metaSums = append(e.metaSums, metaSum(e.metas[ni]))
		}
		p.validate("Predict", cycle)
	}
	return e, e.stages
}

// overlayRef is the per-slot pred.Pred.OverlayOn that overlayInto performs
// in place: the reference its field-group patching is pinned against.
func overlayRef(dst, over, base pred.Packet) {
	for i := range dst {
		dst[i] = over[i].OverlayOn(base[i])
	}
}

// TestOverlayIntoMatchesOverlayOn pins overlayInto to the per-slot
// OverlayOn over random packets: every combination of DirValid, TgtValid,
// IsCFI and Kind in the overlay, with random payload fields on both sides.
func TestOverlayIntoMatchesOverlayOn(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	randPred := func() pred.Pred {
		return pred.Pred{
			DirValid: rng.Intn(2) == 0, Taken: rng.Intn(2) == 0,
			TgtValid: rng.Intn(2) == 0, Target: rng.Uint64(),
			IsCFI: rng.Intn(2) == 0, Kind: pred.CFIKind(rng.Intn(int(pred.KindIndirect) + 1)),
			DirProvider: pred.Provider(rng.Intn(1 << 16)), TgtProvider: pred.Provider(rng.Intn(1 << 16)),
		}
	}
	const width = 4
	var combos []pred.Pred
	for bits := 0; bits < 8; bits++ {
		for k := pred.KindNone; k <= pred.KindIndirect; k++ {
			o := randPred()
			o.DirValid, o.TgtValid, o.IsCFI, o.Kind = bits&1 != 0, bits&2 != 0, bits&4 != 0, k
			combos = append(combos, o)
		}
	}
	for i := 0; i < 2000; i++ {
		over, base := make(pred.Packet, width), make(pred.Packet, width)
		for s := range over {
			over[s], base[s] = combos[(i*width+s)%len(combos)], randPred()
		}
		got, want := make(pred.Packet, width), make(pred.Packet, width)
		for s := range got {
			got[s] = randPred() // stale contents must not leak through
		}
		overlayInto(got, over, base)
		overlayRef(want, over, base)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("overlayInto(%+v over %+v) = %+v, want %+v", over, base, got, want)
		}
	}
}

// TestStagePlanMatchesReference runs random topologies as two identical
// pipelines, one predicting through the stage plan and one through the
// literal depth x node loop, under the same query/accept/resolve/commit
// traffic: every stage vector, provider IDs included, and every metadata
// blob must agree byte for byte.
func TestStagePlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	srcs := []string{"LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", "TOURNEY3 > [GBIM2 > BTB2, LBIM2]"}
	for i := 0; i < 30; i++ {
		srcs = append(srcs, randomTopology(rng))
	}
	for _, src := range srcs {
		var ps [2]*Pipeline
		for k := range ps {
			p, err := New(pred.DefaultConfig(), MustParse(src), Options{GHistBits: 64, HFEntries: 8})
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			ps[k] = p
		}
		for q := 0; q < 400; q++ {
			cycle := uint64(q)
			pc := uint64(0x1000 + rng.Intn(48)*4)
			var es [2]*Entry
			var stages [2][]pred.Packet
			for k, p := range ps {
				p.Tick(cycle)
				if k == 0 {
					es[k], stages[k] = p.Predict(cycle, pc)
				} else {
					es[k], stages[k] = referencePredict(p, cycle, pc)
				}
			}
			if (es[0] == nil) != (es[1] == nil) {
				t.Fatalf("%q query %d: stall disagrees", src, q)
			}
			if es[0] == nil {
				for _, p := range ps {
					p.Commit(cycle, p.Oldest())
				}
				continue
			}
			if !reflect.DeepEqual(stages[0], stages[1]) {
				t.Fatalf("%q query %d pc %#x: stage plan\n %+v\nreference\n %+v", src, q, pc, stages[0], stages[1])
			}
			if !reflect.DeepEqual(es[0].metas, es[1].metas) {
				t.Fatalf("%q query %d: metadata differs", src, q)
			}
			// Identical traffic on both: a branch or jump in a random slot,
			// resolved half the time, the history file drained now and then.
			slot := rng.Intn(ps[0].Cfg.FetchWidth)
			taken := rng.Intn(2) == 0
			si := pred.SlotInfo{Valid: true, IsBranch: true, Taken: taken, PC: ps[0].Cfg.SlotPC(pc, slot)}
			if rng.Intn(4) == 0 {
				si = pred.SlotInfo{Valid: true, IsJump: true, Taken: true, PC: si.PC}
				taken = true
			}
			target := uint64(0x1000 + (pc*7)%192&^3)
			resolve, outcome, drain := rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(3) == 0
			if si.IsJump {
				outcome = true
			}
			for k, p := range ps {
				slots := make([]pred.SlotInfo, p.Cfg.FetchWidth)
				slots[slot] = si
				cfi, next := -1, p.Cfg.PacketBase(pc)+uint64(p.Cfg.PktBytes())
				if taken {
					cfi, next = slot, target
				}
				p.Accept(cycle, es[k], stages[k][len(stages[k])-1], slots, cfi, next)
				if resolve {
					p.Resolve(cycle, es[k], slot, outcome, target)
				}
				if drain {
					for p.InFlight() > 0 {
						p.Commit(cycle, p.Oldest())
					}
				}
			}
		}
		if n := ps[0].ViolationCount() + ps[1].ViolationCount(); n != 0 {
			t.Fatalf("%q: %d invariant violations", src, n)
		}
	}
}

// TestStagePlanSize pins the work the plan saves: tage-l's five nodes over
// three stages are fifteen (stage, node) pairs, of which only the five
// responses compute anything — every pinned overlay sits on an input that
// no longer changes.
func TestStagePlanSize(t *testing.T) {
	p := mustPipeline(t, "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", Options{})
	if len(p.plan) != 5 {
		t.Fatalf("tage-l stage plan has %d ops, want 5", len(p.plan))
	}
	for _, op := range p.plan {
		if !op.respond {
			t.Errorf("tage-l plan re-pins %s; every input is final by its response", p.nodes[op.node].name)
		}
	}
	// A slow leaf under a fast override: the override's answer must be
	// re-pinned once the leaf responds at stage 3.
	p = mustPipeline(t, "BTB2 > TAGE3", Options{})
	if len(p.plan) != 3 {
		t.Fatalf("BTB2 > TAGE3 stage plan has %d ops, want 3 (two responses, one re-pin)", len(p.plan))
	}
}

// TestTourneyForwardsBTBProvider checks the tournament's pass-through of
// its input chain's target attribution: once the BTB below it has learned a
// taken jump, the final prediction's target provider ID must resolve to the
// BTB's node name in this pipeline.
func TestTourneyForwardsBTBProvider(t *testing.T) {
	p := mustPipeline(t, "TOURNEY3 > [GBIM2 > BTB2, LBIM2]", Options{GHistBits: 32})
	pc, target := uint64(0x2000), uint64(0x3000)
	var final pred.Pred
	for q := uint64(0); q < 8; q++ {
		p.Tick(q)
		e, stages := p.Predict(q, pc)
		final = stages[len(stages)-1][0]
		slots := make([]pred.SlotInfo, p.Cfg.FetchWidth)
		slots[0] = pred.SlotInfo{Valid: true, IsJump: true, Taken: true, PC: pc}
		p.Accept(q, e, stages[len(stages)-1], slots, 0, target)
		p.Resolve(q, e, 0, true, target)
		p.Commit(q, e)
	}
	if !final.TgtValid || final.Target != target {
		t.Fatalf("BTB never learned the jump: %+v", final)
	}
	if got := p.ProviderName(final.TgtProvider); got != "BTB2" {
		t.Errorf("target provider %d resolves to %q, want BTB2", final.TgtProvider, got)
	}
	if got := p.ProviderName(0); got != "" {
		t.Errorf("provider 0 resolves to %q, want none", got)
	}
}
