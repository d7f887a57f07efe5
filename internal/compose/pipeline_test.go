package compose

import (
	"fmt"
	"testing"

	"cobra/internal/components"
	"cobra/internal/pred"
	"cobra/internal/sram"
)

// ---- controllable fake components for composition-semantics tests ----

// fakeCtl configures fake component behaviour, keyed by node name.
var fakeCtl = struct {
	hit   map[string]pred.Pred // overlay asserted at slot 0 when present
	ghist map[string]uint64    // GHist seen at last predict
	log   []string             // event trace "name:event:meta0"
}{hit: map[string]pred.Pred{}, ghist: map[string]uint64{}}

func resetFakes() {
	fakeCtl.hit = map[string]pred.Pred{}
	fakeCtl.ghist = map[string]uint64{}
	fakeCtl.log = nil
}

type fakeComp struct {
	name string
	id   pred.Provider
	lat  int
	cfg  pred.Config
}

func (f *fakeComp) Name() string   { return f.name }
func (f *fakeComp) Latency() int   { return f.lat }
func (f *fakeComp) MetaWords() int { return 1 }
func (f *fakeComp) NumInputs() int { return 1 }

func (f *fakeComp) UsesLocalHistory() bool { return false }
func (f *fakeComp) Mems() []*sram.Mem      { return nil }

func (f *fakeComp) Predict(q *pred.Query) pred.Response {
	fakeCtl.ghist[f.name] = q.GHist
	overlay := make(pred.Packet, f.cfg.FetchWidth)
	if p, ok := fakeCtl.hit[f.name]; ok {
		p.DirProvider, p.TgtProvider = 0, 0
		if p.DirValid {
			p.DirProvider = f.id
		}
		if p.TgtValid {
			p.TgtProvider = f.id
		}
		overlay[0] = p
	}
	return pred.Response{Overlay: overlay, Meta: []uint64{uint64(len(f.name))*1000 + uint64(f.lat)}}
}

func (f *fakeComp) logEvent(kind string, e *pred.Event) {
	fakeCtl.log = append(fakeCtl.log, fmt.Sprintf("%s:%s:%d", f.name, kind, e.Meta[0]))
}

func (f *fakeComp) Fire(e *pred.Event)       { f.logEvent("fire", e) }
func (f *fakeComp) Mispredict(e *pred.Event) { f.logEvent("mispredict", e) }
func (f *fakeComp) Repair(e *pred.Event)     { f.logEvent("repair", e) }
func (f *fakeComp) Update(e *pred.Event)     { f.logEvent("update", e) }
func (f *fakeComp) Reset()                   {}
func (f *fakeComp) Tick(uint64)              {}
func (f *fakeComp) Budget() sram.Budget      { return sram.Budget{FlopBits: 1} }

func init() {
	// TSTA1/TSTB2/TSTC3... fake components with the latency suffix.
	for _, base := range []string{"TSTA", "TSTB", "TSTC"} {
		components.Register(base, func(env components.Env, name string, latency, size int) (pred.Subcomponent, error) {
			if latency == 0 {
				latency = 1
			}
			return &fakeComp{name: name, id: env.ID, lat: latency, cfg: env.Cfg}, nil
		})
	}
}

// ---- helpers ----

func mustPipeline(t *testing.T, topo string, opt Options) *Pipeline {
	t.Helper()
	p, err := New(pred.DefaultConfig(), MustParse(topo), opt)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// brSlots builds a slot vector with conditional branches at the given slots
// and predicted directions.
func brSlots(p *Pipeline, pc uint64, dirs map[int]bool) []pred.SlotInfo {
	s := make([]pred.SlotInfo, p.Cfg.FetchWidth)
	for slot, taken := range dirs {
		s[slot] = pred.SlotInfo{
			Valid: true, IsBranch: true, Taken: taken,
			PC: p.Cfg.SlotPC(pc, slot),
		}
	}
	return s
}

// ---- §IV-A worked example: ordering changes the stage-2 prediction ----

func TestOrderingSemantics_PaperExample(t *testing.T) {
	// LOOP2 > PHT2 > uBTB1 (topology 1) vs uBTB1 > PHT2 > LOOP2
	// (topology 2) from §IV-A, built from controllable fakes:
	// TSTA1 = uBTB (latency 1), TSTB2 = PHT, TSTC2 = LOOP.
	const (
		ubtb = "TSTA1"
		pht  = "TSTB2"
		loop = "TSTC2"
	)
	takenTo := func(tgt uint64) pred.Pred {
		return pred.Pred{DirValid: true, Taken: true, TgtValid: true, Target: tgt, IsCFI: true}
	}
	notTaken := pred.Pred{DirValid: true, Taken: false}

	run := func(topo string) []pred.Packet {
		resetFakes()
		fakeCtl.hit[ubtb] = takenTo(0x100)
		fakeCtl.hit[pht] = notTaken
		// loop predictor misses (no entry in fakeCtl.hit).
		p := mustPipeline(t, topo, Options{})
		_, stages := p.Predict(0, 0x1000)
		return stages
	}

	// Topology 1: PHT overrides the uBTB; loop would override both.
	s1 := run("TSTC2 > TSTB2 > TSTA1")
	if !s1[0][0].Taken || s1[0][0].Target != 0x100 {
		t.Errorf("topology 1 stage 1 should be the uBTB hit: %+v", s1[0][0])
	}
	if s1[1][0].Taken {
		t.Errorf("topology 1 stage 2: PHT must override uBTB with not-taken: %+v", s1[1][0])
	}

	// Topology 2: the uBTB hit is final; PHT cannot override.
	s2 := run("TSTA1 > TSTB2 > TSTC2")
	if !s2[0][0].Taken {
		t.Errorf("topology 2 stage 1 should be taken: %+v", s2[0][0])
	}
	if !s2[1][0].Taken || s2[1][0].Target != 0x100 {
		t.Errorf("topology 2 stage 2: uBTB hit must pin the prediction: %+v", s2[1][0])
	}
}

func TestOrderingSemantics_LoopWins(t *testing.T) {
	resetFakes()
	fakeCtl.hit["TSTA1"] = pred.Pred{DirValid: true, Taken: true}
	fakeCtl.hit["TSTB2"] = pred.Pred{DirValid: true, Taken: false}
	fakeCtl.hit["TSTC2"] = pred.Pred{DirValid: true, Taken: true}
	p := mustPipeline(t, "TSTC2 > TSTB2 > TSTA1", Options{})
	_, stages := p.Predict(0, 0x1000)
	if !stages[1][0].Taken || p.ProviderName(stages[1][0].DirProvider) != "TSTC2" {
		t.Errorf("loop predictor should win at stage 2: %+v", stages[1][0])
	}
}

func TestPassThroughCarriesEarlierPrediction(t *testing.T) {
	// Neither 2-cycle component hits: the stage-1 prediction is
	// "automatically carried over to cycle 2" (§IV-A).
	resetFakes()
	fakeCtl.hit["TSTA1"] = pred.Pred{DirValid: true, Taken: true, TgtValid: true, Target: 0x40, IsCFI: true}
	p := mustPipeline(t, "TSTC2 > TSTB2 > TSTA1", Options{})
	_, stages := p.Predict(0, 0x1000)
	if stages[1][0] != stages[0][0] {
		t.Errorf("stage 2 must carry the stage-1 prediction:\n s1=%+v\n s2=%+v",
			stages[0][0], stages[1][0])
	}
}

func TestMonotoneRefinement(t *testing.T) {
	// Once a component responds at stage p, its contribution persists at all
	// d > p (§III-A): build a 3-deep pipeline and check stage 2 and 3.
	resetFakes()
	fakeCtl.hit["TSTB2"] = pred.Pred{DirValid: true, Taken: false}
	p := mustPipeline(t, "TSTC3 > TSTB2 > TSTA1", Options{})
	_, stages := p.Predict(0, 0x1000)
	if len(stages) != 3 {
		t.Fatalf("depth = %d", len(stages))
	}
	if !stages[1][0].DirValid || stages[1][0].Taken {
		t.Errorf("stage 2 should be PHT not-taken: %+v", stages[1][0])
	}
	if !stages[2][0].DirValid || stages[2][0].Taken {
		t.Errorf("stage 3 must keep PHT's prediction (TSTC3 missed): %+v", stages[2][0])
	}
}

// ---- interface contract enforcement ----

func TestLatency1GetsNoHistory(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	// Put bits in the global history.
	for i := 0; i < 10; i++ {
		p.Global.Shift(true)
	}
	p.Predict(0, 0x1000)
	if fakeCtl.ghist["TSTA1"] != 0 {
		t.Errorf("latency-1 component saw history %#x; §III-B forbids it", fakeCtl.ghist["TSTA1"])
	}
	if fakeCtl.ghist["TSTB2"] == 0 {
		t.Error("latency-2 component should have seen history")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	e, stages := p.Predict(0, 0x1000)
	p.Accept(0, e, stages[0], brSlots(p, 0x1000, map[int]bool{0: true}), 0, 0x2000)
	res := p.Resolve(1, e, 0, false, 0) // mispredict: predicted taken, was not
	if !res.Mispredict {
		t.Fatal("expected mispredict")
	}
	p.Commit(2, e)
	// Every event must carry the exact metadata from predict time:
	// TSTA1 meta = 5*1000+1 = 5001, TSTB2 meta = 5*1000+2 = 5002.
	wantEvents := map[string]bool{
		"TSTA1:fire:5001": true, "TSTB2:fire:5002": true,
		"TSTA1:repair:5001": true, "TSTB2:repair:5002": true,
		"TSTA1:mispredict:5001": true, "TSTB2:mispredict:5002": true,
		"TSTA1:update:5001": true, "TSTB2:update:5002": true,
	}
	seen := map[string]bool{}
	for _, l := range fakeCtl.log {
		seen[l] = true
	}
	for ev := range wantEvents {
		if !seen[ev] {
			t.Errorf("missing event with round-tripped metadata: %s (log: %v)", ev, fakeCtl.log)
		}
	}
}

func TestArbitrationArityEnforced(t *testing.T) {
	// TOURNEY requires exactly two inputs.
	if _, err := New(pred.DefaultConfig(), MustParse("TOURNEY3 > BIM2"), Options{}); err == nil {
		t.Error("tournament with one input must be rejected")
	}
	if _, err := New(pred.DefaultConfig(), MustParse("BIM2 > [GBIM2, LBIM2]"), Options{}); err == nil {
		t.Error("single-input component with two edges must be rejected")
	}
}

func TestUnknownComponentRejected(t *testing.T) {
	if _, err := New(pred.DefaultConfig(), MustParse("NOPE3 > BIM2"), Options{}); err == nil {
		t.Error("unknown component must be rejected")
	}
}

// ---- speculative history management ----

func TestFireShiftsGlobalHistory(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	e, stages := p.Predict(0, 0x1000)
	slots := brSlots(p, 0x1000, map[int]bool{0: true, 2: false})
	p.Accept(0, e, stages[0], slots, -1, 0x1010)
	// Two branches shifted in slot order; the most recent (slot 2,
	// not-taken) lands in bit 0, slot 0's taken bit in bit 1.
	if got := p.Global.Bits(2); got != 0b10 {
		t.Errorf("global history = %#b, want 0b10", got)
	}
}

func TestFireStopsAtTakenCFI(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	e, stages := p.Predict(0, 0x1000)
	// Taken branch at slot 1; the branch at slot 3 is not fetched.
	slots := brSlots(p, 0x1000, map[int]bool{1: true, 3: true})
	p.Accept(0, e, stages[0], slots, 1, 0x2000)
	if got := p.Global.Bits(2); got != 0b1 {
		t.Errorf("history should contain only the slot-1 branch: %#b", got)
	}
}

func TestResolveCorrectPredictionNoRepair(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	e, stages := p.Predict(0, 0x1000)
	p.Accept(0, e, stages[0], brSlots(p, 0x1000, map[int]bool{0: false}), -1, 0x1010)
	res := p.Resolve(1, e, 0, false, 0)
	if res.Mispredict {
		t.Error("correct prediction flagged as mispredict")
	}
	if p.Global.Restores != 0 {
		t.Error("correct prediction must not restore history")
	}
}

func TestMispredictRepairsGlobalHistory(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	// Packet A: branch predicted not-taken (will be wrong).
	eA, sA := p.Predict(0, 0x1000)
	p.Accept(0, eA, sA[0], brSlots(p, 0x1000, map[int]bool{0: false}), -1, 0x1010)
	// Packets B, C: wrong-path fetches polluting the history.
	eB, sB := p.Predict(1, 0x1010)
	p.Accept(1, eB, sB[0], brSlots(p, 0x1010, map[int]bool{1: true}), 1, 0x3000)
	eC, sC := p.Predict(2, 0x3000)
	p.Accept(2, eC, sC[0], brSlots(p, 0x3000, map[int]bool{0: true}), 0, 0x4000)
	// Most recent first: C(1) in bit 0, B(1) in bit 1, A(0) in bit 2.
	if got := p.Global.Bits(3); got != 0b011 {
		t.Fatalf("pre-repair history = %#b, want 0b011", got)
	}
	// A's branch resolves taken: mispredict.
	res := p.Resolve(3, eA, 0, true, 0x5000)
	if !res.Mispredict || !res.DirMisp {
		t.Fatalf("expected direction mispredict: %+v", res)
	}
	if res.Redirect != 0x5000 {
		t.Errorf("redirect = %#x, want 0x5000", res.Redirect)
	}
	// History = A's corrected bit only; B/C squashed.
	if got := p.Global.Bits(1); got != 0b1 {
		t.Errorf("post-repair history = %#b, want 0b1", got)
	}
	if p.InFlight() != 1 {
		t.Errorf("in flight = %d, want 1 (B and C squashed)", p.InFlight())
	}
	if !eA.Valid() || eB.Valid() || eC.Valid() {
		t.Error("squash validity wrong")
	}
	if eA.NextPC != 0x5000 || eA.CfiIdx != 0 {
		t.Errorf("entry A not truncated: nextPC=%#x cfi=%d", eA.NextPC, eA.CfiIdx)
	}
}

func TestTargetMispredict(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	e, s := p.Predict(0, 0x1000)
	p.Accept(0, e, s[0], brSlots(p, 0x1000, map[int]bool{0: true}), 0, 0x2000)
	res := p.Resolve(1, e, 0, true, 0x9999000)
	if !res.Mispredict || !res.TgtMisp || res.DirMisp {
		t.Errorf("expected target-only mispredict: %+v", res)
	}
	if res.Redirect != 0x9999000 {
		t.Errorf("redirect = %#x", res.Redirect)
	}
}

func TestLocalHistoryRepairOnSquash(t *testing.T) {
	resetFakes()
	// LBIM forces generation of the local history provider.
	p := mustPipeline(t, "TOURNEY3 > [GBIM2, LBIM2]", Options{})
	if p.Local == nil {
		t.Fatal("local history provider not generated for LBIM")
	}
	brPC := p.Cfg.SlotPC(0x1000, 0)

	// Packet A: branch taken (correct path).
	eA, sA := p.Predict(0, 0x1000)
	p.Accept(0, eA, sA[0], brSlots(p, 0x1000, map[int]bool{0: true}), -1, 0x1010)
	want := p.Local.Read(brPC)

	// Packet B: same branch again, wrong-path speculation pollutes lhist.
	eB, sB := p.Predict(1, 0x1000)
	p.Accept(1, eB, sB[0], brSlots(p, 0x1000, map[int]bool{0: true}), -1, 0x1010)
	eC, sC := p.Predict(2, 0x1000)
	p.Accept(2, eC, sC[0], brSlots(p, 0x1000, map[int]bool{0: true}), -1, 0x1010)
	if p.Local.Read(brPC) == want {
		t.Fatal("speculative updates did not change local history")
	}
	// A mispredicts elsewhere in the packet: B, C squashed; lhist restored.
	p.Resolve(3, eA, 0, false, 0)
	if got := p.Local.Read(brPC); got != want>>1 {
		// A's own slot-0 update was also redone with the corrected
		// direction: old value had pred taken=1, corrected is taken=false.
		t.Errorf("local history after repair = %#b (pre-pollution %#b)", got, want)
	}
}

func TestGHRPolicyRepairReshiftsYounger(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{GHRPolicy: GHRRepair})
	// A fetched with no known branches (stage-1 view).
	eA, sA := p.Predict(0, 0x1000)
	p.Accept(0, eA, sA[0], brSlots(p, 0x1000, nil), -1, 0x1010)
	// B fetched next, with one taken branch.
	eB, sB := p.Predict(1, 0x1010)
	p.Accept(1, eB, sB[0], brSlots(p, 0x1010, map[int]bool{0: true}), 0, 0x2000)
	if got := p.Global.Bits(1); got != 0b1 {
		t.Fatalf("history = %#b", got)
	}
	// Stage-2 reveals A had a (not-taken-predicted... here taken) branch:
	// re-accept without squash. Corrected history has A's taken bit (1)
	// inserted beneath B's bit (bit 0 = B = 1, bit 1 = A = 1).
	p.ReAccept(2, eA, sA[1], brSlots(p, 0x1000, map[int]bool{2: true}), -1, 0x1010, false)
	if got := p.Global.Bits(2); got != 0b11 {
		t.Errorf("repaired history = %#b, want 0b11", got)
	}
	if p.InFlight() != 2 {
		t.Error("repair-without-replay must keep younger entries")
	}
	if p.C.HistRepairs != 1 {
		t.Errorf("HistRepairs = %d", p.C.HistRepairs)
	}
}

func TestGHRPolicyNoRepairLeavesStaleBits(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{GHRPolicy: GHRNoRepair})
	eA, sA := p.Predict(0, 0x1000)
	p.Accept(0, eA, sA[0], brSlots(p, 0x1000, nil), -1, 0x1010)
	eB, sB := p.Predict(1, 0x1010)
	p.Accept(1, eB, sB[0], brSlots(p, 0x1010, map[int]bool{0: true}), 0, 0x2000)
	p.ReAccept(2, eA, sA[1], brSlots(p, 0x1000, map[int]bool{2: false}), -1, 0x1010, false)
	// Stale: A's discovered branch bit is NOT in the history.
	if got := p.Global.Bits(2); got != 0b01 {
		t.Errorf("no-repair history = %#b, want stale 0b01", got)
	}
}

func TestReAcceptWithSquashReplaysYounger(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{GHRPolicy: GHRRepairReplay})
	eA, sA := p.Predict(0, 0x1000)
	p.Accept(0, eA, sA[0], brSlots(p, 0x1000, nil), -1, 0x1010)
	eB, sB := p.Predict(1, 0x1010)
	p.Accept(1, eB, sB[0], brSlots(p, 0x1010, map[int]bool{0: true}), 0, 0x2000)
	p.ReAccept(2, eA, sA[1], brSlots(p, 0x1000, map[int]bool{2: false}), -1, 0x1010, true)
	if p.InFlight() != 1 {
		t.Errorf("replay must squash younger fetches: in flight = %d", p.InFlight())
	}
	if got := p.Global.Bits(1); got != 0b0 {
		t.Errorf("history = %#b, want just A's not-taken bit", got)
	}
	if eB.Valid() {
		t.Error("B must be squashed")
	}
}

// ---- commit & lifecycle ----

func TestCommitOrderEnforced(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	eA, sA := p.Predict(0, 0x1000)
	p.Accept(0, eA, sA[0], brSlots(p, 0x1000, nil), -1, 0x1010)
	eB, sB := p.Predict(1, 0x1010)
	p.Accept(1, eB, sB[0], brSlots(p, 0x1010, nil), -1, 0x1020)
	defer func() {
		if recover() == nil {
			t.Error("committing non-oldest entry must panic")
		}
	}()
	p.Commit(2, eB)
}

func TestCommitDequeues(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	e, s := p.Predict(0, 0x1000)
	p.Accept(0, e, s[0], brSlots(p, 0x1000, map[int]bool{0: true}), 0, 0x2000)
	p.Resolve(1, e, 0, true, 0x2000)
	p.Commit(2, e)
	if p.InFlight() != 0 {
		t.Error("commit did not dequeue")
	}
	if e.Valid() {
		t.Error("committed entry still valid")
	}
	if p.C.Commits != 1 {
		t.Errorf("Commits = %d", p.C.Commits)
	}
}

func TestHistoryFileBackpressure(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{HFEntries: 4})
	for i := 0; i < 4; i++ {
		e, s := p.Predict(uint64(i), uint64(0x1000+i*0x10))
		if e == nil {
			t.Fatalf("premature stall at %d", i)
		}
		p.Accept(uint64(i), e, s[0], brSlots(p, uint64(0x1000+i*0x10), nil), -1, 0)
	}
	if !p.Full() {
		t.Error("history file should be full")
	}
	if e, _ := p.Predict(9, 0x9000); e != nil {
		t.Error("Predict must stall when the history file is full")
	}
	// Commit frees an entry.
	p.Commit(10, p.Oldest())
	if e, _ := p.Predict(11, 0x9000); e == nil {
		t.Error("Predict should succeed after commit")
	}
}

func TestSquashAll(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	for i := 0; i < 3; i++ {
		e, s := p.Predict(uint64(i), uint64(0x1000+i*0x10))
		p.Accept(uint64(i), e, s[0], brSlots(p, uint64(0x1000+i*0x10), map[int]bool{0: true}), 0, 0x2000)
	}
	p.SquashAll(5)
	if p.InFlight() != 0 {
		t.Errorf("in flight after SquashAll = %d", p.InFlight())
	}
	if got := p.Global.Bits(3); got != 0 {
		t.Errorf("history after SquashAll = %#b, want 0", got)
	}
}

func TestStaleEntryOperationsIgnored(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	eA, sA := p.Predict(0, 0x1000)
	p.Accept(0, eA, sA[0], brSlots(p, 0x1000, map[int]bool{0: false}), -1, 0x1010)
	eB, sB := p.Predict(1, 0x1010)
	p.Accept(1, eB, sB[0], brSlots(p, 0x1010, map[int]bool{0: true}), 0, 0x2000)
	p.Resolve(2, eA, 0, true, 0x3000) // squashes B
	res := p.Resolve(3, eB, 0, true, 0x2000)
	if res.Mispredict {
		t.Error("stale resolve must be a no-op")
	}
	if p.C.StaleEvents == 0 {
		t.Error("stale event not counted")
	}
}

func TestReset(t *testing.T) {
	resetFakes()
	p := mustPipeline(t, "TSTB2 > TSTA1", Options{})
	e, s := p.Predict(0, 0x1000)
	p.Accept(0, e, s[0], brSlots(p, 0x1000, map[int]bool{0: true}), 0, 0x2000)
	p.Reset()
	if p.InFlight() != 0 || p.Global.Bits(8) != 0 || p.C.Accepts != 0 {
		t.Error("Reset incomplete")
	}
}

// ---- real-topology integration ----

func TestPaperTopologiesBuild(t *testing.T) {
	for _, tc := range []struct {
		topo      string
		depth     int
		wantLocal bool
	}{
		{"LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", 3, false},
		{"GTAG3 > BTB2 > BIM2", 3, false},
		{"TOURNEY3 > [GBIM2 > BTB2, LBIM2]", 3, true},
	} {
		p := mustPipeline(t, tc.topo, Options{})
		if p.Depth() != tc.depth {
			t.Errorf("%s: depth = %d, want %d", tc.topo, p.Depth(), tc.depth)
		}
		if (p.Local != nil) != tc.wantLocal {
			t.Errorf("%s: local provider generated = %v, want %v", tc.topo, p.Local != nil, tc.wantLocal)
		}
		if p.ManagementBudget().TotalBits() <= 0 {
			t.Errorf("%s: empty management budget", tc.topo)
		}
		if len(p.ComponentBudgets()) != len(p.Topo.Nodes()) {
			t.Errorf("%s: budget map size wrong", tc.topo)
		}
		// Smoke: run a few packets through predict/accept/resolve/commit.
		for i := 0; i < 20; i++ {
			pc := uint64(0x1000 + (i%4)*0x10)
			p.Tick(uint64(i))
			e, stages := p.Predict(uint64(i), pc)
			if e == nil {
				t.Fatalf("%s: stall with empty backend", tc.topo)
			}
			taken := i%3 == 0
			p.Accept(uint64(i), e, stages[p.Depth()-1], brSlots(p, pc, map[int]bool{1: taken}), -1, pc+16)
			p.Resolve(uint64(i), e, 1, i%2 == 0, pc+16)
			p.Commit(uint64(i), e)
		}
	}
}

func TestTourneyLocalManagementInFig8(t *testing.T) {
	// The tournament design's management budget must include the large
	// PC-indexed local history table the paper calls out in Fig. 8.
	tourney := mustPipeline(t, "TOURNEY3 > [GBIM2 > BTB2, LBIM2]", Options{})
	b2 := mustPipeline(t, "GTAG3 > BTB2 > BIM2", Options{})
	if tourney.ManagementBudget().TotalBits() <= b2.ManagementBudget().TotalBits() {
		t.Error("tournament management (with local provider) should cost more than B2's")
	}
}
