package components

import (
	"reflect"
	"testing"

	"cobra/internal/history"
	"cobra/internal/pred"
	"cobra/internal/sram"
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

// libraryComponents names one instance of every registered component.
var libraryComponents = []string{
	"UBTB1", "BIM2", "GBIM2", "LBIM2", "GSEL2", "PBIM2",
	"BTB2", "GTAG3", "PHT3", "TAGE3", "LOOP3", "PERC3", "SCOR3", "ITGT3",
	"GEHL3", "YAGS3", "GSKEW3", "TOURNEY3",
}

// TestLibraryCoversRegistry keeps libraryComponents in step with the
// registry, so the suites below cover every registered component.
func TestLibraryCoversRegistry(t *testing.T) {
	listed := map[string]bool{}
	for _, n := range libraryComponents {
		base, _, _, err := ParseNodeName(n)
		if err != nil {
			t.Fatal(err)
		}
		listed[base] = true
	}
	for _, base := range Registered() {
		if !listed[base] {
			t.Errorf("registered component %s is missing from libraryComponents", base)
		}
	}
}

// TestConformanceAllRegistered runs the contract suite over every library
// component (the tournament's two inputs are covered with correct arity).
func TestConformanceAllRegistered(t *testing.T) {
	for _, name := range libraryComponents {
		t.Run(name, func(t *testing.T) { conformance(t, name) })
	}
}

func build(t *testing.T, name string) pred.Subcomponent {
	t.Helper()
	c, err := Build(Env{Cfg: pred.DefaultConfig(), Global: history.NewGlobal(128), ID: 7}, name)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	return c
}

// ownedMems returns every *sram.Mem reachable from v's fields, in field
// order, each once.
func ownedMems(v reflect.Value) []uintptr {
	memType := reflect.TypeOf((*sram.Mem)(nil))
	seen := map[uintptr]bool{}
	var out []uintptr
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == memType {
				out = append(out, v.Pointer())
				return
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		}
	}
	walk(v)
	return out
}

// TestMemsMatchBudget pins what the pipeline clock and the energy model
// rely on: a component exposes every sram.Mem it owns through Mems(), and
// Mems() is exactly what Budget().Mems charges, in order.  A component
// whose Mems() is empty owns no sram.Mem; its budget may then charge
// arrays it models outside package sram (the loop predictor's entries, the
// perceptron's weights).
func TestMemsMatchBudget(t *testing.T) {
	for _, name := range libraryComponents {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			owned := ownedMems(reflect.ValueOf(c))
			mems := c.Mems()
			exposed := map[uintptr]bool{}
			var specs []sram.Spec
			for _, m := range mems {
				exposed[reflect.ValueOf(m).Pointer()] = true
				specs = append(specs, m.Spec())
			}
			if len(exposed) != len(mems) {
				t.Errorf("Mems() lists a memory twice")
			}
			for _, p := range owned {
				if !exposed[p] {
					t.Errorf("owns an sram.Mem that Mems() does not expose")
				}
			}
			if len(owned) != len(mems) {
				t.Errorf("Mems() returns %d memories, component owns %d", len(mems), len(owned))
			}
			if len(mems) == 0 {
				return
			}
			if got := c.Budget().Mems; !reflect.DeepEqual(specs, got) {
				t.Errorf("Mems() specs differ from Budget().Mems:\n mems   %v\n budget %v", specs, got)
			}
		})
	}
}

// TestEventsReadOnly pins that the four event signals leave the shared
// payload untouched: the composer fills one pred.Event per operation and
// hands it to every node in turn, changing only Meta.
func TestEventsReadOnly(t *testing.T) {
	cfg := pred.DefaultConfig()
	for _, name := range libraryComponents {
		t.Run(name, func(t *testing.T) {
			c := build(t, name)
			in := make([]pred.Packet, c.NumInputs())
			for i := range in {
				in[i] = make(pred.Packet, cfg.FetchWidth)
				in[i][0] = pred.Pred{DirValid: true, Taken: true, DirProvider: 9}
			}
			graw := []uint64{0xF0F0_1234, 0x0F0F_5678}
			q := &pred.Query{PC: 0x1000, GHist: graw[0], GRaw: graw, LHist: 0x35, Path: 0x9A, In: in}
			meta := append([]uint64(nil), c.Predict(q).Meta...)

			slots := make([]pred.SlotInfo, cfg.FetchWidth)
			slots[0] = pred.SlotInfo{Valid: true, IsBranch: true, PC: 0x1000, Taken: false, PredTaken: true, Mispredicted: true}
			slots[1] = pred.SlotInfo{Valid: true, IsCall: true, PC: 0x1004, Taken: true, Target: 0x4000}
			slots[3] = pred.SlotInfo{Valid: true, IsIndir: true, PC: 0x100c, Taken: true, Target: 0x8000}
			ev := &pred.Event{Cycle: 11, PC: 0x1000, GHist: graw[0], GRaw: graw,
				LHist: 0x35, Path: 0x9A, Meta: meta, Slots: slots}
			want := *ev
			wantRaw := append([]uint64(nil), graw...)
			wantSlots := append([]pred.SlotInfo(nil), slots...)

			for _, sig := range []struct {
				name string
				f    func(*pred.Event)
			}{{"Fire", c.Fire}, {"Repair", c.Repair}, {"Mispredict", c.Mispredict}, {"Update", c.Update}} {
				for i := 0; i < 3; i++ {
					sig.f(ev)
				}
				if ev.Cycle != want.Cycle || ev.PC != want.PC || ev.GHist != want.GHist ||
					ev.LHist != want.LHist || ev.Path != want.Path {
					t.Fatalf("%s changed a scalar field: got %+v", sig.name, *ev)
				}
				if len(ev.GRaw) != len(want.GRaw) || cap(ev.GRaw) != cap(want.GRaw) || &ev.GRaw[0] != &want.GRaw[0] {
					t.Fatalf("%s replaced GRaw", sig.name)
				}
				if !reflect.DeepEqual(ev.GRaw, wantRaw) {
					t.Fatalf("%s wrote GRaw: %#x, want %#x", sig.name, ev.GRaw, wantRaw)
				}
				if len(ev.Slots) != len(want.Slots) || cap(ev.Slots) != cap(want.Slots) || &ev.Slots[0] != &want.Slots[0] {
					t.Fatalf("%s replaced Slots", sig.name)
				}
				if !reflect.DeepEqual(ev.Slots, wantSlots) {
					t.Fatalf("%s wrote Slots:\n got %+v\nwant %+v", sig.name, ev.Slots, wantSlots)
				}
			}
		})
	}
}
