package pred

import (
	"reflect"
	"testing"
	"testing/quick"

	"cobra/internal/sram"
)

// Provider IDs the overlay tests attribute fields to.
const (
	bim Provider = iota + 1
	btb
	tage
	btb2
	loop
)

func TestOverlayOnFieldGroups(t *testing.T) {
	base := Pred{DirValid: true, Taken: false, DirProvider: bim,
		TgtValid: true, Target: 0x100, TgtProvider: btb}

	// Direction-only override keeps the base target.
	dir := Pred{DirValid: true, Taken: true, DirProvider: tage}
	got := dir.OverlayOn(base)
	if !got.Taken || got.DirProvider != tage {
		t.Errorf("direction override failed: %+v", got)
	}
	if !got.TgtValid || got.Target != 0x100 || got.TgtProvider != btb {
		t.Errorf("target must pass through: %+v", got)
	}

	// Target-only override keeps the base direction (Fig. 3 BTB behaviour).
	tgt := Pred{TgtValid: true, Target: 0x200, TgtProvider: btb2, IsCFI: true}
	got = tgt.OverlayOn(base)
	if got.Taken || got.DirProvider != bim {
		t.Errorf("direction must pass through: %+v", got)
	}
	if got.Target != 0x200 || !got.IsCFI {
		t.Errorf("target override failed: %+v", got)
	}

	// Empty overlay is the identity (pure pass-through).
	if got := (Pred{}).OverlayOn(base); got != base {
		t.Errorf("empty overlay changed base: %+v", got)
	}
}

// TestPredIsPointerFree pins the packet layout the composer's copies rely
// on: no field the garbage collector must scan, and 24 bytes in all.
func TestPredIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Pred{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint64:
		default:
			t.Errorf("field %s is a %s; Pred must stay pointer-free", f.Name, f.Type.Kind())
		}
	}
	if n := typ.Size(); n != 24 {
		t.Errorf("Pred is %d bytes, want 24", n)
	}
}

func TestOverlayIdentityProperty(t *testing.T) {
	f := func(dirValid, taken, tgtValid bool, target uint64) bool {
		p := Pred{DirValid: dirValid, Taken: taken && dirValid,
			TgtValid: tgtValid, Target: target}
		if tgtValid {
			p.Target = target
		} else {
			p.Target = 0
		}
		// Overlaying a prediction on the zero value yields itself.
		got := p.OverlayOn(Pred{})
		return got.DirValid == p.DirValid && got.TgtValid == p.TgtValid &&
			(!p.DirValid || got.Taken == p.Taken) &&
			(!p.TgtValid || got.Target == p.Target)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlayAssociativity(t *testing.T) {
	// (a over (b over c)) == ((a over b applied at packet level)) — for
	// single fields: overlaying is right-biased and associative.
	a := Pred{DirValid: true, Taken: true, DirProvider: 1}
	b := Pred{TgtValid: true, Target: 5, TgtProvider: 2}
	c := Pred{DirValid: true, Taken: false, DirProvider: 3,
		TgtValid: true, Target: 9, TgtProvider: 3}
	left := a.OverlayOn(b.OverlayOn(c))
	if !left.DirValid || !left.Taken || left.DirProvider != 1 {
		t.Errorf("direction should come from a: %+v", left)
	}
	if left.Target != 5 || left.TgtProvider != 2 {
		t.Errorf("target should come from b: %+v", left)
	}
}

func TestPacketOverlay(t *testing.T) {
	base := Packet{{DirValid: true, Taken: false}, {}}
	over := Packet{{}, {DirValid: true, Taken: true, DirProvider: loop}}
	got := over.OverlayOn(base)
	if got[0] != base[0] {
		t.Errorf("slot 0 must pass through: %+v", got[0])
	}
	if !got[1].Taken || got[1].DirProvider != loop {
		t.Errorf("slot 1 must be overridden: %+v", got[1])
	}
}

func TestPacketOverlayLengthMismatch(t *testing.T) {
	over := Packet{{DirValid: true, Taken: true}, {DirValid: true}}
	got := over.OverlayOn(Packet{}) // shorter base
	if len(got) != 2 || !got[0].Taken {
		t.Errorf("overlay on short base: %+v", got)
	}
}

func TestPacketClone(t *testing.T) {
	p := Packet{{DirValid: true}}
	q := p.Clone()
	q[0].DirValid = false
	if !p[0].DirValid {
		t.Error("Clone aliases backing array")
	}
}

func TestEventBranchSlot(t *testing.T) {
	e := &Event{Slots: []SlotInfo{
		{Valid: true, IsJump: true},
		{Valid: false, IsBranch: true},
		{Valid: true, IsBranch: true},
	}}
	if got := e.BranchSlot(); got != 2 {
		t.Errorf("BranchSlot = %d, want 2", got)
	}
	if got := (&Event{}).BranchSlot(); got != -1 {
		t.Errorf("empty event BranchSlot = %d, want -1", got)
	}
}

type fakeComp struct {
	name    string
	latency int
	meta    int
	inputs  int
}

func (f *fakeComp) Name() string            { return f.name }
func (f *fakeComp) Latency() int            { return f.latency }
func (f *fakeComp) MetaWords() int          { return f.meta }
func (f *fakeComp) NumInputs() int          { return f.inputs }
func (f *fakeComp) UsesLocalHistory() bool  { return false }
func (f *fakeComp) Mems() []*sram.Mem       { return nil }
func (f *fakeComp) Predict(*Query) Response { return Response{} }
func (f *fakeComp) Fire(*Event)             {}
func (f *fakeComp) Mispredict(*Event)       {}
func (f *fakeComp) Repair(*Event)           {}
func (f *fakeComp) Update(*Event)           {}
func (f *fakeComp) Reset()                  {}
func (f *fakeComp) Tick(uint64)             {}
func (f *fakeComp) Budget() sram.Budget     { return sram.Budget{} }

func TestValidate(t *testing.T) {
	ok := &fakeComp{name: "x", latency: 1}
	if err := Validate(ok); err != nil {
		t.Errorf("valid component rejected: %v", err)
	}
	for _, bad := range []*fakeComp{
		{name: "", latency: 1},
		{name: "x", latency: 0},
		{name: "x", latency: 1, meta: -1},
		{name: "x", latency: 1, inputs: -1},
	} {
		if err := Validate(bad); err == nil {
			t.Errorf("Validate accepted bad component %+v", bad)
		}
	}
}
