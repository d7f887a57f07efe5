package interval

import (
	"strings"
	"testing"
	"time"

	"cobra/internal/obs"
	"cobra/internal/stats"
)

// advance moves a synthetic counter state forward by n instructions with a
// fixed per-instruction counter mix, then ticks the recorder as the core's
// flush path would.
type driver struct {
	r   *Recorder
	s   stats.Sim
	cyc uint64
}

func newDriver(every uint64) *driver {
	return &driver{r: NewRecorder(every, nil), s: stats.NewSim()}
}

func (d *driver) advance(insts uint64) {
	d.cyc += insts * 2
	d.s.Instructions += insts
	d.s.Branches += insts / 5
	d.s.Mispredicts += insts / 100
	d.s.AddProviderHit("TAGE3")
	d.s.AddProviderMiss("BIM2")
	d.r.Tick(d.cyc, &d.s, d.s.Instructions/10, d.s.Instructions/20, 0)
}

func TestRecorderWindowsTile(t *testing.T) {
	d := newDriver(1000)
	// Flush cadence coarser than the window: every close lands past the
	// boundary, and the next window must start exactly where this one ended.
	for i := 0; i < 20; i++ {
		d.advance(333)
	}
	d.r.Finish(d.cyc, &d.s, d.s.Instructions/10, d.s.Instructions/20, 0)
	set := d.r.Set()
	if len(set.Windows) == 0 {
		t.Fatal("no windows recorded")
	}
	if set.IntervalInsts != 1000 {
		t.Fatalf("IntervalInsts = %d", set.IntervalInsts)
	}
	for i, w := range set.Windows {
		if w.Index != i {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if i > 0 {
			p := set.Windows[i-1]
			if w.StartCycle != p.EndCycle || w.StartInst != p.EndInst {
				t.Fatalf("window %d does not tile: starts (%d,%d), predecessor ends (%d,%d)",
					i, w.StartCycle, w.StartInst, p.EndCycle, p.EndInst)
			}
		}
		if w.EndInst <= w.StartInst {
			t.Fatalf("window %d spans no instructions: %+v", i, w)
		}
	}
	last := set.Windows[len(set.Windows)-1]
	if last.EndInst != d.s.Instructions {
		t.Fatalf("Finish did not close the trailing partial window: last end %d, committed %d",
			last.EndInst, d.s.Instructions)
	}
	// Window counters are deltas: they must sum back to the cumulative totals.
	var branches uint64
	for _, w := range set.Windows {
		branches += w.Branches
	}
	if branches != d.s.Branches {
		t.Fatalf("window branch deltas sum to %d, cumulative is %d", branches, d.s.Branches)
	}
	if set.Hash == "" || set.Hash != set.ContentHash() {
		t.Fatalf("Set hash %q not the content hash", set.Hash)
	}
}

func TestRecorderProvidersSortedAndDeltaed(t *testing.T) {
	d := newDriver(100)
	d.advance(100)
	d.advance(100)
	set := d.r.Set()
	if len(set.Windows) < 2 {
		t.Fatalf("want 2 windows, got %d", len(set.Windows))
	}
	for _, w := range set.Windows {
		for i := 1; i < len(w.Providers); i++ {
			if w.Providers[i-1].Name >= w.Providers[i].Name {
				t.Fatalf("providers not strictly sorted: %+v", w.Providers)
			}
		}
	}
	// Each advance adds one TAGE3 hit and one BIM2 miss; the second window's
	// deltas must not re-count the first's.
	w := set.Windows[1]
	for _, p := range w.Providers {
		switch p.Name {
		case "TAGE3":
			if p.Branches != 1 {
				t.Fatalf("TAGE3 delta branches = %d, want 1", p.Branches)
			}
		case "BIM2":
			if p.Mispredicts != 1 {
				t.Fatalf("BIM2 delta mispredicts = %d, want 1", p.Mispredicts)
			}
		}
	}
}

func TestRecorderH2PThreshold(t *testing.T) {
	r := NewRecorder(100, nil)
	s := stats.NewSim()
	for i := uint32(0); i < H2PThreshold-1; i++ {
		r.Mispredict(0x40)
	}
	if r.windowH2P != 0 {
		t.Fatalf("pc below threshold counted: %d", r.windowH2P)
	}
	r.Mispredict(0x40) // crosses the threshold
	r.Mispredict(0x40) // and stays in the set
	if r.windowH2P != 2 {
		t.Fatalf("windowH2P = %d, want 2", r.windowH2P)
	}
	s.Instructions = 100
	r.Tick(200, &s, 0, 0, 0)
	set := r.Set()
	if got := set.Windows[0].H2PMispredicts; got != 2 {
		t.Fatalf("window H2PMispredicts = %d, want 2", got)
	}
	// The per-window counter resets; the per-PC set persists.
	r.Mispredict(0x40)
	if r.windowH2P != 1 {
		t.Fatalf("after close, windowH2P = %d, want 1 (set membership persists)", r.windowH2P)
	}
}

func TestRecorderRebaseAndReset(t *testing.T) {
	d := newDriver(100)
	for i := uint32(0); i < H2PThreshold; i++ {
		d.r.Mispredict(0x99)
	}
	d.advance(250)
	if d.r.Snap().Window == nil {
		t.Fatal("no window before rebase")
	}
	// Rebase (the warmup boundary): windows restart at zero, H2P set survives.
	d.r.Rebase(d.cyc, &d.s, d.s.Instructions/10, d.s.Instructions/20, 0)
	if d.r.Snap().Window != nil {
		t.Fatal("window survived rebase")
	}
	d.r.Mispredict(0x99)
	if d.r.windowH2P != 1 {
		t.Fatal("H2P set did not survive rebase")
	}
	// Reset (a retried attempt): the H2P set is cleared too.
	d.r.Reset()
	d.r.Mispredict(0x99)
	if d.r.windowH2P != 0 {
		t.Fatal("H2P set survived reset")
	}
}

func TestRecorderRingOverflow(t *testing.T) {
	r := NewRecorder(10, nil)
	s := stats.NewSim()
	const total = ringCap + 50
	for i := 1; i <= total; i++ {
		s.Instructions = uint64(i * 10)
		r.Tick(uint64(i*20), &s, 0, 0, 0)
	}
	set := r.Set()
	if len(set.Windows) != ringCap {
		t.Fatalf("kept %d windows, ring holds %d", len(set.Windows), ringCap)
	}
	if set.Dropped != 50 {
		t.Fatalf("dropped = %d, want 50", set.Dropped)
	}
	if first := set.Windows[0].Index; first != 50 {
		t.Fatalf("oldest kept window index = %d, want 50 (oldest dropped first)", first)
	}
	// The survivors must still encode: contiguity holds across the drop.
	if _, err := set.Encode(); err != nil {
		t.Fatalf("overflowed set does not encode: %v", err)
	}
}

func TestRecorderLatestIsACopy(t *testing.T) {
	d := newDriver(100)
	d.advance(100)
	w := d.r.Snap().Window
	if w == nil {
		t.Fatal("no window")
	}
	if len(w.Providers) == 0 {
		t.Fatal("expected provider stats")
	}
	w.Providers[0].Branches = 0xDEAD
	if again := d.r.Snap().Window; again.Providers[0].Branches == 0xDEAD {
		t.Fatal("Snap's window aliases ring storage")
	}
}

// TestRecorderProgressSnapshot: the recorder's progress half — phase, rate
// clock, target and totals — reads back through Snap, and totals count from
// the last Rebase like stats.Sim.
func TestRecorderProgressSnapshot(t *testing.T) {
	r := NewRecorder(0, nil)
	if p := r.Snap(); p.Phase != "queued" || p.Done || p.ElapsedMS != 0 {
		t.Fatalf("fresh recorder = %+v", p)
	}
	r.SetPhase(obs.PhaseSimulate)
	r.SetTarget(20000)
	s := stats.NewSim()
	s.Instructions = 2500
	r.Tick(5000, &s, 0, 0, 0)
	time.Sleep(5 * time.Millisecond)
	p := r.Snap()
	if p.Phase != "simulate" || p.Cycles != 5000 || p.Insts != 2500 || p.TargetInsts != 20000 {
		t.Fatalf("snapshot = %+v", p)
	}
	if p.ElapsedMS <= 0 || p.InstsPerSec <= 0 {
		t.Fatalf("rate not derived: %+v", p)
	}
	if p.Window != nil {
		t.Fatalf("windows off, yet the snapshot carries %+v", p.Window)
	}
	// The warmup boundary: totals restart at the rebase cycle.
	r.Rebase(6000, &s, 0, 0, 0)
	s = stats.NewSim()
	s.Instructions = 100
	s.Cycles = 700
	r.Finish(6700, &s, 0, 0, 0)
	if p := r.Snap(); p.Cycles != 700 || p.Insts != 100 {
		t.Fatalf("totals after rebase = %d cycles / %d insts, want 700 / 100", p.Cycles, p.Insts)
	}
	if err := r.Reconcile(&s); err != nil {
		t.Fatal(err)
	}
	r.SetPhase(obs.PhaseDone)
	if p := r.Snap(); !p.Done || p.Phase != "done" {
		t.Fatalf("terminal snapshot = %+v", p)
	}
	if obs.PhaseFailed.String() != "failed" || !obs.PhaseFailed.Terminal() {
		t.Fatal("failed phase misclassified")
	}
}

// TestRecorderWindowsOff: a zero window size records no windows and keeps
// no ring or H2P map, while totals and metrics still publish.
func TestRecorderWindowsOff(t *testing.T) {
	r := NewRecorder(0, nil)
	if r.ring != nil || r.h2p != nil {
		t.Fatal("windows-off recorder allocated a ring or H2P map")
	}
	s := stats.NewSim()
	for i := 0; i < 10; i++ {
		r.Mispredict(0x40)
		s.Instructions += 1000
		r.Tick(uint64(i+1)*2000, &s, 0, 0, 0)
	}
	r.Finish(21000, &s, 0, 0, 0)
	if set := r.Set(); len(set.Windows) != 0 || set.IntervalInsts != 0 {
		t.Fatalf("windows-off recorder produced %+v", set)
	}
	if p := r.Snap(); p.Cycles != 21000 || p.Insts != 10000 {
		t.Fatalf("totals = %d / %d", p.Cycles, p.Insts)
	}
}

// TestRecorderForwardsMetrics: the batch metrics receive cycle and
// instruction deltas cumulative over warmup and measurement, while the
// progress totals restart at the warmup boundary.
func TestRecorderForwardsMetrics(t *testing.T) {
	met := obs.NewMetrics()
	r := NewRecorder(100, met)
	s := stats.NewSim()
	s.Instructions = 300
	r.Tick(500, &s, 0, 0, 0)
	s.Instructions = 400
	r.Rebase(650, &s, 0, 0, 0) // warmup: 650 cycles, 400 insts
	s = stats.NewSim()
	s.Instructions = 1000
	r.Tick(1650, &s, 0, 0, 0)
	s.Instructions, s.Cycles = 1234, 1400
	r.Finish(2050, &s, 0, 0, 0)
	if m := met.Snap(); m.Cycles != 2050 || m.Instructions != 1634 {
		t.Fatalf("metrics = %d cycles / %d insts, want 2050 / 1634", m.Cycles, m.Instructions)
	}
	if p := r.Snap(); p.Cycles != 1400 || p.Insts != 1234 {
		t.Fatalf("progress = %d / %d, want the measured 1400 / 1234", p.Cycles, p.Insts)
	}
	// A reset recorder forwards a new core's deltas from cycle zero.
	r.Reset()
	s = stats.NewSim()
	s.Instructions, s.Cycles = 10, 20
	r.Finish(20, &s, 0, 0, 0)
	if m := met.Snap(); m.Cycles != 2070 || m.Instructions != 1644 {
		t.Fatalf("metrics after reset = %d / %d, want 2070 / 1644", m.Cycles, m.Instructions)
	}
}

// TestRecorderReconcile: a faithfully fed recorder reconciles with the
// counters it saw, and a counter the windows never saw is reported.
func TestRecorderReconcile(t *testing.T) {
	d := newDriver(1000)
	for i := 0; i < 20; i++ {
		d.advance(333)
	}
	d.s.Cycles = d.cyc
	d.r.Finish(d.cyc, &d.s, d.s.Instructions/10, d.s.Instructions/20, 0)
	if err := d.r.Reconcile(&d.s); err != nil {
		t.Fatalf("faithful recorder: %v", err)
	}
	s := d.s
	s.Branches++
	if err := d.r.Reconcile(&s); err == nil || !strings.Contains(err.Error(), "windows sum") {
		t.Fatalf("extra branch not reported: %v", err)
	}
	s = d.s
	s.ProviderHits = map[string]uint64{"TAGE3": d.s.ProviderHits["TAGE3"] + 1}
	if err := d.r.Reconcile(&s); err == nil || !strings.Contains(err.Error(), "provider TAGE3") {
		t.Fatalf("extra provider hit not reported: %v", err)
	}
	s = d.s
	s.Cycles++
	if err := d.r.Reconcile(&s); err == nil || !strings.Contains(err.Error(), "progress totals") {
		t.Fatalf("cycle mismatch not reported: %v", err)
	}
}

// TestRecorderRingGrowsOnDemand: a short windowed run pays for the windows
// it closes, not for the full ring.
func TestRecorderRingGrowsOnDemand(t *testing.T) {
	d := newDriver(1000)
	for i := 0; i < 5; i++ {
		d.advance(1000)
	}
	d.r.Finish(d.cyc, &d.s, d.s.Instructions/10, d.s.Instructions/20, 0)
	if n := len(d.r.Set().Windows); n != 5 {
		t.Fatalf("recorded %d windows, want 5", n)
	}
	if c := cap(d.r.ring); c > 16 {
		t.Fatalf("5-window run holds a ring of cap %d (ringCap %d)", c, ringCap)
	}
}
