package components

import (
	"reflect"
	"testing"

	"cobra/internal/history"
	"cobra/internal/pred"
)

// conformance drives one registered component through the COBRA interface
// contract (§III).  Every component in the library — and any future
// third-party component — must pass:
//
//  1. static validation (latency >= 1, sane declarations);
//  2. determinism: identical queries yield identical responses;
//  3. §III-B: latency-1 components ignore history inputs;
//  4. overlay geometry: FetchWidth slots, providers named correctly;
//  5. metadata length matches MetaWords();
//  6. the five events accept the component's own metadata without panics,
//     in arbitrary interleavings;
//  7. Reset returns to a state equivalent to power-on for prediction.
func conformance(t *testing.T, name string) {
	t.Helper()
	e := Env{Cfg: pred.DefaultConfig(), Global: history.NewGlobal(128), ID: 7}
	const up pred.Provider = 9 // the upstream provider of every input slot
	c, err := Build(e, name)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := pred.Validate(c); err != nil {
		t.Fatalf("validate: %v", err)
	}

	mkQuery := func(pc, ghist uint64) *pred.Query {
		in := make([]pred.Packet, c.NumInputs())
		for i := range in {
			in[i] = make(pred.Packet, e.Cfg.FetchWidth)
			in[i][0] = pred.Pred{DirValid: true, Taken: true, DirProvider: up}
		}
		return &pred.Query{PC: pc, GHist: ghist, GRaw: []uint64{ghist, 0}, In: in}
	}

	// 2. Determinism.
	r1 := c.Predict(mkQuery(0x1000, 0xAA))
	meta1 := append([]uint64(nil), r1.Meta...)
	ov1 := r1.Overlay.Clone()
	r2 := c.Predict(mkQuery(0x1000, 0xAA))
	if !reflect.DeepEqual(ov1, r2.Overlay.Clone()) {
		t.Errorf("nondeterministic overlay for identical queries")
	}
	if !reflect.DeepEqual(meta1, append([]uint64(nil), r2.Meta...)) {
		t.Errorf("nondeterministic metadata for identical queries")
	}

	// 3. Latency-1 components must be insensitive to history.
	if c.Latency() == 1 {
		a := c.Predict(mkQuery(0x2000, 0)).Overlay.Clone()
		b := c.Predict(mkQuery(0x2000, ^uint64(0))).Overlay.Clone()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("latency-1 component reads history (§III-B violation)")
		}
	}

	// 4. Geometry and attribution.
	if len(r1.Overlay) != e.Cfg.FetchWidth {
		t.Errorf("overlay has %d slots, want %d", len(r1.Overlay), e.Cfg.FetchWidth)
	}
	for i, p := range r1.Overlay {
		if p.DirValid && p.DirProvider != e.ID && p.DirProvider != up {
			t.Errorf("slot %d: direction provider %d is neither the component's ID %d nor pass-through", i, p.DirProvider, e.ID)
		}
	}

	// 5. Metadata contract.
	if len(r1.Meta) != c.MetaWords() {
		t.Errorf("meta length %d != MetaWords() %d", len(r1.Meta), c.MetaWords())
	}

	// 6. Event storm with round-tripped metadata: no panics, arbitrary
	// subsets and orders (§III-E: components may use or ignore any subset).
	slots := make([]pred.SlotInfo, e.Cfg.FetchWidth)
	slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, Taken: true, PC: 0x1000,
		PredTaken: true}
	slots[2] = pred.SlotInfo{Valid: true, IsJump: true, Taken: true, PC: 0x1008, Target: 0x4000}
	ev := func() *pred.Event {
		return &pred.Event{PC: 0x1000, GHist: 0xAA, GRaw: []uint64{0xAA, 0},
			Meta: meta1, Slots: slots}
	}
	for step := 0; step < 50; step++ {
		switch step % 5 {
		case 0:
			c.Fire(ev())
		case 1:
			c.Repair(ev())
		case 2:
			misp := ev()
			misp.Slots[0].Mispredicted = true
			c.Mispredict(misp)
			misp.Slots[0].Mispredicted = false
		case 3:
			c.Update(ev())
		case 4:
			c.Tick(uint64(step))
			c.Predict(mkQuery(0x1000+uint64(step)*16, uint64(step)))
		}
	}

	// 7. Reset restores power-on prediction behaviour.
	c.Reset()
	fresh, err := Build(Env{Cfg: e.Cfg, Global: history.NewGlobal(128), ID: e.ID}, name)
	if err != nil {
		t.Fatal(err)
	}
	got := c.Predict(mkQuery(0x3000, 0)).Overlay.Clone()
	want := fresh.Predict(mkQuery(0x3000, 0)).Overlay.Clone()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Reset state differs from power-on:\n got %+v\nwant %+v", got, want)
	}

	if c.Budget().TotalBits() <= 0 {
		t.Error("component reports no storage")
	}
}

// TestConformanceAllRegistered runs the contract suite over every library
// component (skipping the test-only fakes other packages may register).
func TestConformanceAllRegistered(t *testing.T) {
	for _, name := range []string{
		"UBTB1", "BIM2", "GBIM2", "LBIM2", "GSEL2", "PBIM2",
		"BTB2", "GTAG3", "PHT3", "TAGE3", "LOOP3", "PERC3", "SCOR3", "ITGT3",
		"GEHL3", "YAGS3", "GSKEW3",
	} {
		t.Run(name, func(t *testing.T) { conformance(t, name) })
	}
	// The tournament needs two inputs; it is covered with correct arity.
	t.Run("TOURNEY3", func(t *testing.T) { conformance(t, "TOURNEY3") })
}
