package uarch

import (
	"math/rand"
	"reflect"
	"testing"

	"cobra/internal/compose"
	"cobra/internal/pred"
	"cobra/internal/program"
)

// loopAt builds a long-running loop whose back-edge sits at a chosen
// alignment, with enough body ops to keep the exit rare.
func backEdgeLoop(bodyOps int) *program.Program {
	b := program.NewBuilder("be", 0x1000, 4, 1)
	b.Loop(1_000_000, func() {
		b.Ops(bodyOps, 0, 0, 0, nil)
	})
	return b.MustSeal()
}

// cyclesFor runs a topology on a program for n instructions and returns
// cycles.
func cyclesFor(t *testing.T, topo string, p *program.Program, n uint64) uint64 {
	t.Helper()
	bp := mkPipeline(t, topo, compose.Options{GHistBits: 64})
	core := NewCore(DefaultConfig(), bp, p, 7)
	return core.Run(n).Cycles
}

// TestOverrideBubbleHierarchy checks the Alpha-style cost ladder (§IV-B):
// a taken back-edge predicted by the 1-cycle uBTB is cheaper than one
// predicted first at stage 2 (BTB), which is cheaper than one the predictor
// never sees coming (pre-decode redirect every iteration).
//
// This is the regression test for the fetch/advance ordering bug where
// stage-2 overrides were free and the uBTB was worthless.
func TestOverrideBubbleHierarchy(t *testing.T) {
	// All three pipelines are depth 3 (GTAG3 pins the depth), isolating the
	// stage at which the taken back-edge redirects fetch: Fetch-1 (uBTB),
	// Fetch-2 (BTB), or pre-decode (no target provider).
	const n = 60000
	withUBTB := cyclesFor(t, "GTAG3 > BTB2 > BIM2 > UBTB1", backEdgeLoop(6), n)
	btbOnly := cyclesFor(t, "GTAG3 > BTB2 > BIM2", backEdgeLoop(6), n)
	predecodeOnly := cyclesFor(t, "GTAG3 > BIM2", backEdgeLoop(6), n)
	if !(withUBTB < btbOnly) {
		t.Errorf("uBTB (%d cyc) must beat stage-2 BTB redirects (%d cyc)", withUBTB, btbOnly)
	}
	if !(btbOnly < predecodeOnly) {
		t.Errorf("stage-2 BTB redirects (%d cyc) must beat predecode-only redirects (%d cyc)",
			btbOnly, predecodeOnly)
	}
}

// TestDeliveryStaysInOrder is the regression test for the out-of-order
// delivery bug: with a tiny fetch buffer, large older packets must not be
// bypassed by smaller younger ones (the symptom was a commit-order panic).
func TestDeliveryStaysInOrder(t *testing.T) {
	b := program.NewBuilder("mix", 0x1000, 4, 3)
	// Alternate full packets (4 ops) with 1-op packets ended by taken jumps.
	head := b.PC()
	b.Ops(7, 0.3, 0.1, 0, func() program.MemBehavior {
		return &program.RandMem{Base: 0x100000, Size: 1 << 22}
	})
	fx := b.ForwardBranch(&program.BiasedDir{P: 0.5})
	b.Ops(1, 0, 0, 0, nil)
	fx.Bind()
	b.Jump(head)
	p, err := b.Seal()
	if err != nil {
		t.Fatal(err)
	}
	bp := mkPipeline(t, "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16})
	cfg := DefaultConfig()
	cfg.FetchBufferCap = 5 // tight: forces delivery stalls
	core := NewCore(cfg, bp, p, 7)
	res := core.Run(50000) // panics on ordering violations
	if res.Instructions < 50000 {
		t.Error("did not complete")
	}
}

// TestRASRepairAcrossMispredicts: wrong-path call/ret traffic must not
// corrupt return prediction once the mispredict resolves.
func TestRASRepairAcrossMispredicts(t *testing.T) {
	b := program.NewBuilder("rascorrupt", 0x1000, 4, 5)
	skip := b.ForwardJump()
	leaf := b.Func(func() { b.Ops(2, 0, 0, 0, nil) })
	// A function whose body calls leaf behind a hard-to-predict branch.
	mid := b.Func(func() {
		fx := b.ForwardBranch(&program.BiasedDir{P: 0.5})
		b.Call(leaf)
		b.Ops(1, 0, 0, 0, nil)
		fx.Bind()
		b.Ops(1, 0, 0, 0, nil)
	})
	skip.Bind()
	b.Loop(100000, func() {
		b.Call(mid)
		b.Ops(2, 0, 0, 0, nil)
	})
	p := b.MustSeal()
	bp := mkPipeline(t, "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16})
	res := NewCore(DefaultConfig(), bp, p, 7).Run(80000)
	// The 50/50 branch mispredicts constantly; the wrong paths contain
	// calls/returns.  With checkpointed RAS repair, committed returns must
	// still be predicted nearly perfectly.
	if res.IndirectJumps == 0 {
		t.Fatal("no returns committed")
	}
	missRate := float64(res.TgtMispredicts) / float64(res.IndirectJumps)
	if missRate > 0.05 {
		t.Errorf("return target miss rate %.3f; RAS repair is leaking corruption", missRate)
	}
}

// TestSFBShadowAcrossPacketBoundary: a predicated branch whose shadow spans
// into the next fetch packet must still commit the correct architectural
// stream.
func TestSFBShadowAcrossPacketBoundary(t *testing.T) {
	b := program.NewBuilder("sfbspan", 0x1000, 4, 7)
	b.Loop(100000, func() {
		b.Ops(2, 0, 0, 0, nil) // misalign: hammock branch lands mid-packet
		fx := b.ForwardBranch(&program.BiasedDir{P: 0.5})
		b.Ops(6, 0, 0, 0, nil) // 6-op shadow: crosses a packet boundary
		fx.Bind()
		b.Ops(1, 0, 0, 0, nil)
	})
	p := b.MustSeal()
	bp := mkPipeline(t, "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16})
	cfg := DefaultConfig()
	cfg.SFB = true
	cfg.SFBMaxDist = 8
	res := NewCore(cfg, bp, p, 7).Run(60000)
	if res.Instructions < 60000 {
		t.Fatal("did not complete")
	}
	// The hammock is predicated: essentially no branch mispredicts remain
	// (the loop back-edge exits once).
	if res.DirMispredicts > 20 {
		t.Errorf("predicated hammock still mispredicting: %d", res.DirMispredicts)
	}
}

// TestSerializedFetchTruncatesPackets: under SerializedFetch each delivered
// packet ends at its first CFI, so multi-branch packets never commit two
// branches from one fetch.
func TestSerializedFetchTruncatesPackets(t *testing.T) {
	b := program.NewBuilder("ser", 0x1000, 4, 9)
	b.Loop(100000, func() {
		// Two not-taken branches back to back in one packet.
		fx1 := b.ForwardBranch(&program.BiasedDir{P: 0.01})
		fx2 := b.ForwardBranch(&program.BiasedDir{P: 0.01})
		b.Ops(2, 0, 0, 0, nil)
		fx1.Bind()
		fx2.Bind()
		b.Ops(1, 0, 0, 0, nil)
	})
	p := b.MustSeal()
	mk := func(serial bool) *Core {
		bp := mkPipeline(t, "BIM2", compose.Options{})
		cfg := DefaultConfig()
		cfg.SerializedFetch = serial
		return NewCore(cfg, bp, p, 7)
	}
	cs := mk(true)
	rs := cs.Run(40000)
	cw := mk(false)
	rw := cw.Run(40000)
	if rs.Cycles <= rw.Cycles {
		t.Errorf("serialized (%d cyc) must be slower than superscalar (%d cyc)", rs.Cycles, rw.Cycles)
	}
	if rs.Branches != rw.Branches && rs.Instructions == rw.Instructions {
		t.Errorf("architectural branch counts must match: %d vs %d", rs.Branches, rw.Branches)
	}
}

// TestWatchdogFires: an impossible configuration must abort via the
// watchdog rather than spin forever.
func TestWatchdogFires(t *testing.T) {
	p := backEdgeLoop(3)
	bp := mkPipeline(t, "BIM2", compose.Options{})
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 100
	cfg.FetchBufferCap = 0 // nothing can ever be delivered
	core := NewCore(cfg, bp, p, 7)
	defer func() {
		if recover() == nil {
			t.Error("watchdog did not fire")
		}
	}()
	core.Run(1000)
}

// TestStepBuffer exercises the oracle window directly.
func TestStepBuffer(t *testing.T) {
	p := backEdgeLoop(3)
	sb := newStepBuffer(program.NewOracle(p, 1))
	first := *sb.peek()
	i0 := sb.consume()
	sb.peek()
	i1 := sb.consume()
	if i1 != i0+1 {
		t.Errorf("indices not sequential: %d %d", i0, i1)
	}
	sb.rewind(i0)
	if got := *sb.peek(); got != first {
		t.Errorf("rewind did not restore the stream: %+v vs %+v", got, first)
	}
	sb.consume()
	sb.consume()
	sb.prune(i1)
	defer func() {
		if recover() == nil {
			t.Error("rewinding past pruned steps must panic")
		}
	}()
	sb.rewind(i0)
}

// TestStepBufferRing drives the oracle window through ring wrap, growth and
// rewinds across the wrap point, checking every served step against the
// oracle's own stream.
func TestStepBufferRing(t *testing.T) {
	p := backEdgeLoop(5)
	ref := program.NewOracle(p, 3)
	var want []program.Step
	at := func(i uint64) program.Step {
		for uint64(len(want)) <= i {
			want = append(want, program.Step{})
			ref.Next(&want[len(want)-1])
		}
		return want[i]
	}
	sb := newStepBuffer(program.NewOracle(p, 3))
	take := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			got := *sb.peek()
			if i := sb.consume(); got != at(i) {
				t.Fatalf("step %d: got %+v, want %+v", i, got, at(i))
			}
		}
	}
	// slide advances the cursor n steps, keeping a window of 40 live steps.
	slide := func(n int) {
		t.Helper()
		for k := 0; k < n; k++ {
			sb.prune(sb.cursor - 40)
			take(1)
		}
	}
	// Fill the first ring, then let the window lap it several times: it
	// wraps without growing.
	take(stepRingMin)
	slide(5 * stepRingMin)
	if len(sb.ring) != stepRingMin {
		t.Errorf("ring grew to %d with a window of 40", len(sb.ring))
	}
	// Rewind across the wrap point: base..cursor straddles ring index 0.
	slide(stepRingMin - int(sb.cursor&sb.mask) + 1)
	if sb.base&sb.mask < sb.cursor&sb.mask {
		t.Fatalf("window [%d, %d) does not straddle the wrap point", sb.base, sb.cursor)
	}
	sb.rewind(sb.base + 1)
	take(60)
	// A window wider than the ring doubles it, keeping the steps in order;
	// a rewind to the oldest retained step then replays all of them.
	base := sb.base
	take(3 * stepRingMin)
	if len(sb.ring) != 4*stepRingMin {
		t.Errorf("ring holds %d steps after growth, want %d", len(sb.ring), 4*stepRingMin)
	}
	sb.rewind(base)
	take(int(sb.end - base))
	sb.prune(sb.end + 10) // pruning past the drawn steps stops at end
	if sb.base != sb.end {
		t.Errorf("prune past end left base %d, end %d", sb.base, sb.end)
	}
	take(1)
}

// TestMemAddrWrongPathStability: wrong-path memory ops use deterministic
// pseudo-addresses (cache pollution without touching oracle state).
func TestMemAddrWrongPathStability(t *testing.T) {
	p := backEdgeLoop(3)
	bp := mkPipeline(t, "BIM2", compose.Options{})
	c := NewCore(DefaultConfig(), bp, p, 7)
	r := &robE{fbInst: fbInst{pc: 0x1234, inst: &program.Inst{Class: program.ClassLoad}}}
	a1, a2 := c.memAddr(r), c.memAddr(r)
	if a1 != a2 {
		t.Error("wrong-path address must be deterministic")
	}
	r2 := &robE{fbInst: fbInst{pc: 0x1238, inst: &program.Inst{Class: program.ClassLoad}}}
	if c.memAddr(r2) == a1 {
		t.Error("distinct PCs should map to distinct pseudo-addresses")
	}
}

// TestViewDecodeWritesEverySlot: viewDecode's destination is a recycled
// vector that nobody clears, so every slot must be written — a decode into
// garbage must equal a decode into zeros, over random packets and starts.
func TestViewDecodeWritesEverySlot(t *testing.T) {
	c := NewCore(DefaultConfig(), mkPipeline(t, "BIM2", compose.Options{}), backEdgeLoop(3), 7)
	w := c.cfg.Fetch.FetchWidth
	rng := rand.New(rand.NewSource(5))
	v := make(pred.Packet, w)
	clean, dirty := make([]pred.SlotInfo, w), make([]pred.SlotInfo, w)
	junk := pred.SlotInfo{Valid: true, PC: 0xdead, IsJump: true, IsRet: true, Taken: true,
		PredTaken: true, Target: 0xbeef, Mispredicted: true}
	for n := 0; n < 20000; n++ {
		for i := range v {
			v[i] = pred.Pred{Kind: pred.CFIKind(rng.Intn(6)), DirValid: rng.Intn(2) == 0,
				Taken: rng.Intn(2) == 0, TgtValid: rng.Intn(3) == 0, Target: rng.Uint64()}
		}
		start := rng.Intn(w)
		for i := range dirty {
			clean[i], dirty[i] = pred.SlotInfo{}, junk
		}
		cfi0, next0 := c.viewDecode(0x4000, start, v, clean)
		cfi1, next1 := c.viewDecode(0x4000, start, v, dirty)
		if cfi0 != cfi1 || next0 != next1 || !reflect.DeepEqual(clean, dirty) {
			t.Fatalf("packet %+v start %d: decode into garbage left\n%+v\nwant\n%+v", v, start, dirty, clean)
		}
	}
}
