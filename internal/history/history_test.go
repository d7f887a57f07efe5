package history

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cobra/internal/bitutil"
)

func TestGlobalShiftOrder(t *testing.T) {
	g := NewGlobal(8)
	g.Shift(true)
	g.Shift(false)
	g.Shift(true)
	// Most recent first: 1,0,1 -> 0b101.
	if got := g.Bits(3); got != 0b101 {
		t.Errorf("Bits(3) = %#b, want 0b101", got)
	}
	if got := g.Bits(8); got != 0b101 {
		t.Errorf("Bits(8) = %#b, want 0b101", got)
	}
}

func TestGlobalLengthMasking(t *testing.T) {
	g := NewGlobal(4)
	for i := 0; i < 10; i++ {
		g.Shift(true)
	}
	if got := g.Bits(4); got != 0b1111 {
		t.Errorf("Bits(4) = %#b", got)
	}
	if g.Raw()[0] != 0b1111 {
		t.Errorf("history must be masked to length: %#b", g.Raw()[0])
	}
}

func TestGlobalSnapshotRestore(t *testing.T) {
	g := NewGlobal(128)
	f := g.NewFold(100, 11)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		g.Shift(rng.Intn(2) == 1)
	}
	snap := g.Snapshot()
	wantBits := g.Bits(64)
	wantFold := f.Fold()
	for i := 0; i < 50; i++ {
		g.Shift(rng.Intn(2) == 1) // wrong-path pollution
	}
	g.Restore(snap)
	if g.Bits(64) != wantBits {
		t.Errorf("restore: Bits = %#x, want %#x", g.Bits(64), wantBits)
	}
	if f.Fold() != wantFold {
		t.Errorf("restore: fold = %#x, want %#x", f.Fold(), wantFold)
	}
	if g.Restores != 1 {
		t.Errorf("Restores = %d, want 1", g.Restores)
	}
}

func TestGlobalSnapshotIsDeepCopy(t *testing.T) {
	g := NewGlobal(64)
	g.Shift(true)
	snap := g.Snapshot()
	g.Shift(true)
	g.Shift(true)
	g.Restore(snap)
	if g.Bits(2) != 0b01 {
		t.Errorf("snapshot aliased live state: Bits(2)=%#b", g.Bits(2))
	}
}

func TestGlobalFoldTracksReference(t *testing.T) {
	g := NewGlobal(640)
	folds := []*bitutil.FoldedHistory{
		g.NewFold(13, 10), g.NewFold(64, 12), g.NewFold(640, 13),
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		g.Shift(rng.Intn(2) == 1)
		for _, f := range folds {
			want := bitutil.FoldBits(g.Raw(), f.HistLen(), f.Width())
			if f.Fold() != want {
				t.Fatalf("step %d: fold(%d,%d) = %#x, want %#x",
					i, f.HistLen(), f.Width(), f.Fold(), want)
			}
		}
	}
}

func TestGlobalRestoreProperty(t *testing.T) {
	// Property: for any prefix and any pollution, restore is exact.
	f := func(prefix, pollution []bool) bool {
		g := NewGlobal(96)
		fh := g.NewFold(70, 9)
		for _, b := range prefix {
			g.Shift(b)
		}
		snap := g.Snapshot()
		before := append([]uint64(nil), g.Raw()...)
		fold := fh.Fold()
		for _, b := range pollution {
			g.Shift(b)
		}
		g.Restore(snap)
		after := g.Raw()
		for i := range before {
			if before[i] != after[i] {
				return false
			}
		}
		return fh.Fold() == fold
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGlobalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero-length global history")
		}
	}()
	NewGlobal(0)
}

func TestGlobalFoldTooLongPanics(t *testing.T) {
	g := NewGlobal(16)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for fold longer than register")
		}
	}()
	g.NewFold(17, 8)
}

func TestLocalSpecUpdateAndRestore(t *testing.T) {
	l := NewLocal(256, 32, 1)
	pc := uint64(0x8000_1234)
	l.Tick(1)
	if got := l.Read(pc); got != 0 {
		t.Fatalf("fresh local history = %#x", got)
	}
	old1 := l.SpecUpdate(pc, true)
	l.Tick(2)
	old2 := l.SpecUpdate(pc, true)
	l.Tick(3)
	old3 := l.SpecUpdate(pc, false)
	l.Tick(4)
	if got := l.Read(pc); got != 0b110 {
		t.Fatalf("after T,T,N history = %#b, want 0b110", got)
	}
	if old1 != 0 || old2 != 0b1 || old3 != 0b11 {
		t.Fatalf("pre-update values wrong: %b %b %b", old1, old2, old3)
	}
	// Forwards-walk repair restores the oldest squashed pre-update value.
	l.Restore(pc, old2)
	l.Tick(5)
	if got := l.Read(pc); got != 0b1 {
		t.Fatalf("restored history = %#b, want 0b1", got)
	}
}

func TestLocalDistinctPCs(t *testing.T) {
	l := NewLocal(256, 16, 1)
	a, b := uint64(0x1000), uint64(0x1002) // different indices
	l.Tick(1)
	l.SpecUpdate(a, true)
	l.Tick(2)
	if l.Read(b) != 0 {
		t.Error("update to one PC leaked into another")
	}
}

func TestLocalAliasing(t *testing.T) {
	// PCs congruent modulo the table size alias — the pathology the
	// tournament design exhibits in Fig. 10.
	l := NewLocal(16, 8, 1)
	a := uint64(0x100)
	b := a + uint64(16)<<1 // same index after the PC fold? ensure same idx
	if l.index(a) != l.index(b) {
		// Construct an aliasing pair directly via index equality search.
		b = 0
		for pc := uint64(2); pc < 1<<16; pc += 2 {
			if pc != a && l.index(pc) == l.index(a) {
				b = pc
				break
			}
		}
		if b == 0 {
			t.Skip("no aliasing pair found")
		}
	}
	l.Tick(1)
	l.SpecUpdate(a, true)
	l.Tick(2)
	if l.Read(b) == 0 {
		t.Error("aliasing pair should share an entry")
	}
}

func TestLocalHistBitsMask(t *testing.T) {
	l := NewLocal(8, 4, 1)
	pc := uint64(0x40)
	for i := 0; i < 10; i++ {
		l.Tick(uint64(i))
		l.SpecUpdate(pc, true)
	}
	l.Tick(100)
	if got := l.Read(pc); got != 0b1111 {
		t.Errorf("history must mask to 4 bits, got %#b", got)
	}
}

func TestLocalPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewLocal(3, 8, 1) },
		func() { NewLocal(8, 0, 1) },
		func() { NewLocal(8, 64, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected constructor panic")
				}
			}()
			fn()
		}()
	}
}

func TestPathHistory(t *testing.T) {
	p := NewPath(8)
	p.Shift(0x2, 1) // bit 1 of 0x2 = 1
	p.Shift(0x4, 1) // bit 1 of 0x4 = 0
	if p.Bits() != 0b10 {
		t.Errorf("path bits = %#b, want 0b10", p.Bits())
	}
	s := p.Snapshot()
	p.Shift(0x2, 1)
	p.Restore(s)
	if p.Bits() != 0b10 {
		t.Errorf("path restore failed: %#b", p.Bits())
	}
	p.Reset()
	if p.Bits() != 0 {
		t.Error("path reset failed")
	}
}

func TestBudgets(t *testing.T) {
	g := NewGlobal(64)
	g.NewFold(64, 12)
	if got := g.Budget().TotalBits(); got != 76 {
		t.Errorf("global budget = %d bits, want 76", got)
	}
	l := NewLocal(256, 32, 1)
	if got := l.Budget().TotalBits(); got != 256*32 {
		t.Errorf("local budget = %d bits, want %d", got, 256*32)
	}
	p := NewPath(16)
	if p.Budget().TotalBits() != 16 {
		t.Error("path budget wrong")
	}
}

func TestGlobalReset(t *testing.T) {
	g := NewGlobal(32)
	f := g.NewFold(20, 7)
	g.Shift(true)
	g.Reset()
	if g.Bits(32) != 0 || f.Fold() != 0 || g.SpecShifts != 0 {
		t.Error("reset incomplete")
	}
}
