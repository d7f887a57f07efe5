package bitutil

// FoldedHistory incrementally maintains an n-bit fold of the most recent
// histLen bits of a shift-register history, exactly as the circular-shift
// registers in TAGE hardware do.  Shifting a new bit in and the oldest bit
// out updates the fold in O(1) instead of re-XORing the whole history.
//
// The fold is defined as the XOR of consecutive width-bit chunks of the
// history, where chunk i covers history bits [i*width, (i+1)*width).  The
// invariant Fold() == FoldBits(history, histLen, width) is checked by
// property tests.
type FoldedHistory struct {
	folded   uint64
	histLen  uint   // number of history bits covered
	width    uint   // output width in bits
	mask     uint64 // Mask(width)
	outPoint uint   // bit position within the fold where the oldest bit leaves
}

// NewFoldedHistory returns a folded history covering histLen bits of history
// compressed to width bits. width must be in [1, 32]; histLen may be 0 (the
// fold is then constant 0).
func NewFoldedHistory(histLen, width uint) *FoldedHistory {
	if width == 0 || width > 32 {
		panic("bitutil: folded history width must be in [1,32]")
	}
	return &FoldedHistory{
		histLen:  histLen,
		width:    width,
		mask:     Mask(width),
		outPoint: histLen % width,
	}
}

// Width returns the output width in bits.
func (f *FoldedHistory) Width() uint { return f.width }

// HistLen returns the number of history bits covered by the fold.
func (f *FoldedHistory) HistLen() uint { return f.histLen }

// Fold returns the current folded value.
func (f *FoldedHistory) Fold() uint64 { return f.folded }

// Update shifts newBit into the history and oldBit (the bit that is histLen
// positions old, i.e. the one leaving the window) out, maintaining the fold:
// rotate left by one within width, then the new bit enters at position 0
// and the old bit leaves at outPoint.  Both positions lie inside the width,
// so one mask after the rotate suffices, and the bits are XORed in without
// branching on them.
func (f *FoldedHistory) Update(newBit, oldBit bool) {
	if f.histLen == 0 {
		return
	}
	h := f.folded
	h = (h<<1 | h>>(f.width-1)) & f.mask
	f.folded = h ^ b2u(newBit) ^ b2u(oldBit)<<f.outPoint
}

// b2u is 1 for true and 0 for false; the compiler turns it into a flag
// move, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Set recomputes the fold from a full history vector (bit 0 = most recent).
// Used when restoring from a snapshot.
func (f *FoldedHistory) Set(hist []uint64) {
	f.folded = FoldBits(hist, f.histLen, f.width)
}

// SetRaw directly restores a previously captured fold value.
func (f *FoldedHistory) SetRaw(v uint64) { f.folded = v & f.mask }

// FoldBits computes the non-incremental fold of the low histLen bits of
// hist (bit 0 of hist[0] = most recent outcome) down to width bits: the
// history bit of age a contributes to fold bit a%width, i.e. the XOR of
// consecutive width-bit chunks of the history window.  FoldedHistory.Update
// maintains exactly this value incrementally.
//
// The fold works word-at-a-time: each 64-bit history word is XOR-folded
// down to width bits, then rotated into the phase its word offset occupies
// in the fold (bit j of word i has age 64i+j, and (64i+j) % width ==
// ((j % width) + (64i % width)) % width — a rotation of the word-local fold
// by 64i mod width).  Recomputing a 640-bit TAGE fold therefore costs ten
// word folds instead of 640 single-bit probes.  FoldBitsRef is the
// bit-serial reference the fuzz and property tests pin this against; width
// must be in [1, 64].
func FoldBits(hist []uint64, histLen, width uint) uint64 {
	if width == 0 || histLen == 0 {
		return 0
	}
	words := int((histLen + 63) / 64)
	if words > len(hist) {
		words = len(hist) // absent words hold zero history: no contribution
	}
	var out uint64
	phase := uint(0)
	step := 64 % width
	for i := 0; i < words; i++ {
		v := hist[i]
		if rem := histLen - uint(i)*64; rem < 64 {
			v &= Mask(rem)
		}
		f := XorFold(v, width)
		// Rotate the word-local fold left by this word's phase (a shift
		// count of `width` reads as zero in Go, so phase == 0 is a no-op).
		f = ((f << phase) | (f >> (width - phase))) & Mask(width)
		out ^= f
		if phase += step; phase >= width {
			phase -= width
		}
	}
	return out
}

// ChunkBits extracts bits [pos, pos+n) of a multi-word history vector as a
// single value (n <= 64), reading across word boundaries.  Bits beyond the
// vector read as zero, matching HistBit.
func ChunkBits(hist []uint64, pos, n uint) uint64 {
	w, off := pos/64, pos%64
	var v uint64
	if int(w) < len(hist) {
		v = hist[w] >> off
	}
	if off+n > 64 && int(w+1) < len(hist) {
		v |= hist[w+1] << (64 - off)
	}
	return v & Mask(n)
}

// FoldBitsRef is the bit-serial reference fold: one HistBit probe per
// history bit.  It exists as the independently-simple specification the
// word-packed FoldBits is fuzzed against (FuzzFoldedHistory); production
// code should call FoldBits.
func FoldBitsRef(hist []uint64, histLen, width uint) uint64 {
	if width == 0 || histLen == 0 {
		return 0
	}
	var out uint64
	for a := uint(0); a < histLen; a++ {
		if HistBit(hist, a) {
			out ^= 1 << (a % width)
		}
	}
	return out
}

// HistBit returns bit `age` of a multi-word history vector (bit 0 of word 0
// is the most recent outcome).
func HistBit(hist []uint64, age uint) bool {
	w := age / 64
	if int(w) >= len(hist) {
		return false
	}
	return (hist[w]>>(age%64))&1 == 1
}
