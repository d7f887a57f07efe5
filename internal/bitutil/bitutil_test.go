package bitutil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    uint
		want uint64
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{8, 0xff},
		{32, 0xffffffff},
		{63, 0x7fffffffffffffff},
		{64, ^uint64(0)},
		{80, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestBits(t *testing.T) {
	if got := Bits(0xabcd, 4, 8); got != 0xbc {
		t.Errorf("Bits(0xabcd,4,8) = %#x, want 0xbc", got)
	}
	if got := Bits(^uint64(0), 60, 8); got != 0xf {
		t.Errorf("Bits(max,60,8) = %#x, want 0xf", got)
	}
	// SetBits round-trips through Bits, drops the value's high bits, and
	// leaves the neighbouring fields unchanged.
	const v = 0x0123_4567_89ab_cdef
	for _, lo := range []uint{0, 4, 13, 58} {
		got := SetBits(v, lo, 6, 0x1e5)
		if f := Bits(got, lo, 6); f != 0x25 {
			t.Errorf("Bits(SetBits(v,%d,6,0x1e5),%d,6) = %#x, want 0x25", lo, lo, f)
		}
		if keep := ^(Mask(6) << lo); got&keep != v&keep {
			t.Errorf("SetBits(v,%d,6,…) changed bits outside the field: %#x", lo, got)
		}
	}
}

func TestClog2(t *testing.T) {
	cases := []struct {
		n    int
		want uint
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := Clog2(c.n); got != c.want {
			t.Errorf("Clog2(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for n := -2; n <= 1<<20; n++ {
		if got, want := Clog2(n), clog2Loop(n); got != want {
			t.Fatalf("Clog2(%d) = %d, want %d", n, got, want)
		}
	}
}

// clog2Loop is the shift loop Clog2 replaced, kept as its reference.
func clog2Loop(n int) uint {
	var b uint
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	return b
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1 << 20} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 12, (1 << 20) + 1} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestFolderStableWithinPacket(t *testing.T) {
	f := NewFolder(4, 10)
	base := uint64(0x80001230)
	for off := uint64(0); off < 16; off++ {
		if f.Fold(base+off) != f.Fold(base) {
			t.Fatalf("Fold differs within fetch packet at offset %d", off)
		}
	}
}

func TestXorFoldWidth(t *testing.T) {
	f := func(v uint64) bool {
		return XorFold(v, 10) <= Mask(10)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if XorFold(0, 10) != 0 {
		t.Error("XorFold(0) != 0")
	}
}

// xorFoldRef is the per-chunk loop XorFold and the PC hash were written
// as, with the chunk mask recomputed every iteration: the reference the
// hoisted-mask kernels are pinned against.
func xorFoldRef(v uint64, n uint) uint64 {
	if n == 0 {
		return 0
	}
	var out uint64
	for v != 0 {
		out ^= v & Mask(n)
		v >>= n
	}
	return out
}

func TestXorFoldMatchesChunkLoop(t *testing.T) {
	vals := []uint64{0, 1, 0x80001230, 0xdeadbeefcafef00d, ^uint64(0), 1 << 63, 0x0123456789abcdef}
	for _, tc := range []struct{ off, n uint }{
		{0, 0}, {0, 1}, {2, 7}, {4, 10}, {4, 12}, {3, 13}, {0, 31}, {2, 32}, {1, 63}, {0, 64},
	} {
		for _, v := range vals {
			if got, want := XorFold(v, tc.n), xorFoldRef(v, tc.n); got != want {
				t.Errorf("XorFold(%#x, %d) = %#x, want %#x", v, tc.n, got, want)
			}
			if got, want := NewFolder(tc.off, tc.n).Fold(v), xorFoldRef(v>>tc.off, tc.n); got != want {
				t.Errorf("NewFolder(%d, %d).Fold(%#x) = %#x, want %#x", tc.off, tc.n, v, got, want)
			}
		}
	}
}

// TestFolderEveryWidth pins Folder to the chunk loop for every width and
// a range of shifts, over values of every magnitude.
func TestFolderEveryWidth(t *testing.T) {
	vals := []uint64{0, 1, ^uint64(0), 1 << 63}
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 64; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals = append(vals, x, x>>i, 1<<i|1)
	}
	for n := uint(0); n <= 65; n++ {
		for _, off := range []uint{0, 1, 2, 4, 6, 13, 40, 63, 64, 70} {
			f := NewFolder(off, n)
			for _, v := range vals {
				if got, want := f.Fold(v), xorFoldRef(v>>off, n); got != want {
					t.Fatalf("NewFolder(%d, %d).Fold(%#x) = %#x, want %#x", off, n, v, got, want)
				}
			}
		}
	}
}

func TestSatCounters(t *testing.T) {
	c := uint8(0)
	for i := 0; i < 10; i++ {
		c = SatInc(c, 2)
	}
	if c != 3 {
		t.Errorf("saturated 2-bit counter = %d, want 3", c)
	}
	for i := 0; i < 10; i++ {
		c = SatDec(c, 2)
	}
	if c != 0 {
		t.Errorf("decremented counter = %d, want 0", c)
	}
	if !CtrTaken(2, 2) || !CtrTaken(3, 2) || CtrTaken(1, 2) || CtrTaken(0, 2) {
		t.Error("CtrTaken threshold wrong for 2-bit counter")
	}
	if !CtrWeak(1, 2) || !CtrWeak(2, 2) || CtrWeak(0, 2) || CtrWeak(3, 2) {
		t.Error("CtrWeak wrong for 2-bit counter")
	}
	s := int8(0)
	for i := 0; i < 10; i++ {
		s = CtrUpdateS(s, true, 7)
	}
	if s != 7 {
		t.Errorf("saturated signed counter = %d, want 7", s)
	}
	for i := 0; i < 20; i++ {
		s = CtrUpdateS(s, false, 7)
	}
	if s != -8 {
		t.Errorf("decremented signed counter = %d, want -8", s)
	}
}

// TestCtrWidthMatchesFunctions pins CtrWidth to CtrTaken and CtrUpdate for
// every counter value of every width a uint8 counter can hold, and past it.
func TestCtrWidthMatchesFunctions(t *testing.T) {
	for w := uint(1); w <= 9; w++ {
		cw := NewCtrWidth(w)
		if cw.Mask() != Mask(w) {
			t.Errorf("w=%d: Mask = %#x", w, cw.Mask())
		}
		for c := 0; c < 256; c++ {
			v := uint8(c)
			if got, want := cw.Taken(v), CtrTaken(v, w); got != want {
				t.Errorf("w=%d c=%d: Taken = %v, want %v", w, c, got, want)
			}
			for _, tk := range []bool{false, true} {
				if got, want := cw.Update(v, tk), CtrUpdate(v, tk, w); got != want {
					t.Errorf("w=%d c=%d taken=%v: Update = %d, want %d", w, c, tk, got, want)
				}
			}
		}
	}
}

func TestSignedSatCounters(t *testing.T) {
	c := int8(0)
	for i := 0; i < 100; i++ {
		c = SatIncS(c, 31)
	}
	if c != 31 {
		t.Errorf("signed counter saturated at %d, want 31", c)
	}
	for i := 0; i < 100; i++ {
		c = SatDecS(c, 31)
	}
	if c != -32 {
		t.Errorf("signed counter floor %d, want -32", c)
	}
}

// shiftIn prepends a bit to a multi-word history vector (bit 0 most recent).
func shiftIn(hist []uint64, bit bool) {
	carry := uint64(0)
	if bit {
		carry = 1
	}
	for i := range hist {
		next := hist[i] >> 63
		hist[i] = hist[i]<<1 | carry
		carry = next
	}
}

func TestFoldedHistoryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct{ histLen, width uint }{
		{5, 5}, {8, 4}, {13, 7}, {64, 12}, {130, 11}, {640, 13}, {1, 1}, {3, 8},
	} {
		f := NewFoldedHistory(cfg.histLen, cfg.width)
		hist := make([]uint64, 11) // 704 bits
		for step := 0; step < 2000; step++ {
			newBit := rng.Intn(2) == 1
			oldBit := HistBit(hist, cfg.histLen-1)
			f.Update(newBit, oldBit)
			shiftIn(hist, newBit)
			want := FoldBits(hist, cfg.histLen, cfg.width)
			if f.Fold() != want {
				t.Fatalf("cfg %+v step %d: fold %#x, want %#x", cfg, step, f.Fold(), want)
			}
		}
	}
}

func TestFoldedHistorySetRestores(t *testing.T) {
	f := NewFoldedHistory(37, 9)
	hist := make([]uint64, 2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		nb := rng.Intn(2) == 1
		f.Update(nb, HistBit(hist, 36))
		shiftIn(hist, nb)
	}
	saved := f.Fold()
	f.SetRaw(0)
	f.Set(hist)
	if f.Fold() != saved {
		t.Fatalf("Set did not restore fold: got %#x want %#x", f.Fold(), saved)
	}
}

func TestFoldedHistoryZeroLen(t *testing.T) {
	f := NewFoldedHistory(0, 4)
	f.Update(true, true)
	if f.Fold() != 0 {
		t.Error("zero-length folded history must stay 0")
	}
}

func TestFoldedHistoryPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for width 0")
		}
	}()
	NewFoldedHistory(8, 0)
}

func TestHistBitBeyondVector(t *testing.T) {
	if HistBit([]uint64{^uint64(0)}, 64) {
		t.Error("HistBit beyond vector must be false")
	}
}
