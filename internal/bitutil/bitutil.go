// Package bitutil provides the small bit-manipulation primitives shared by
// the predictor sub-components: power-of-two masks, index hashing, and
// folded-history compression.
//
// Branch predictors index SRAM tables with hashes of the program counter and
// (possibly very long) branch histories.  Hardware implementations cannot
// afford to XOR a 64-bit-or-longer history vector down to an index every
// cycle, so they maintain *folded* histories: circular-shift registers that
// incrementally keep history%width up to date as bits are shifted in and out.
// FoldedHistory implements that structure and is the basis of the TAGE and
// GTAG index/tag functions.
package bitutil

import "math/bits"

// Mask returns a value with the low n bits set. n must be in [0, 64].
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Bits extracts bits [lo, lo+n) of v.
func Bits(v uint64, lo, n uint) uint64 {
	return (v >> lo) & Mask(n)
}

// SetBits returns v with bits [lo, lo+n) replaced by the low n bits of x,
// the inverse of Bits.
func SetBits(v uint64, lo, n uint, x uint64) uint64 {
	return v&^(Mask(n)<<lo) | (x&Mask(n))<<lo
}

// Clog2 returns ceil(log2(n)) for n >= 1, and 0 for n <= 1.
func Clog2(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// XorFold folds v down to n bits by repeated XOR of n-bit chunks.  A table
// that folds with one width on every lookup keeps a Folder instead.
func XorFold(v uint64, n uint) uint64 {
	return NewFolder(0, n).Fold(v)
}

// Folder folds a table's index or tag input with its operands fixed when
// the table is built: the low bits dropped first (a fetch PC's offset
// within its packet, constant for every slot, as the RTL counter tables
// hash it), and the fold width with its chunk mask, so a lookup computes
// no mask.  Fold(v) == XorFold(v>>shift, width).
type Folder struct {
	shift uint   // low bits of v dropped before folding
	width uint   // chunk width; 64 for width 0, so the loop stops at once
	mask  uint64 // Mask(width): 0 for width 0, so the fold is 0
}

// NewFolder returns the fold of v>>shift down to width bits.
func NewFolder(shift, width uint) Folder {
	if width == 0 {
		return Folder{shift: shift, width: 64}
	}
	return Folder{shift: shift, width: width, mask: Mask(width)}
}

// Fold XOR-folds v>>shift down to the folder's width, one chunk per
// iteration: a PC of a few chunks takes a few iterations.
func (f Folder) Fold(v uint64) uint64 {
	v >>= f.shift
	var out uint64
	for v != 0 {
		out ^= v & f.mask
		v >>= f.width
	}
	return out
}

// SatInc increments a w-bit unsigned saturating counter.
func SatInc(c uint8, w uint) uint8 {
	if uint64(c) < Mask(w) {
		return c + 1
	}
	return c
}

// SatDec decrements a w-bit unsigned saturating counter.
func SatDec(c uint8, w uint) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

// CtrUpdate moves a w-bit saturating counter toward taken/not-taken.
func CtrUpdate(c uint8, taken bool, w uint) uint8 {
	if taken {
		return SatInc(c, w)
	}
	return SatDec(c, w)
}

// CtrTaken interprets the MSB of a w-bit counter as the taken prediction.
func CtrTaken(c uint8, w uint) bool {
	return uint64(c) >= (Mask(w)+1)/2
}

// CtrWidth is a w-bit saturating counter's width with its maximum and
// taken threshold computed once, for a width that is a table parameter:
// Taken and Update agree with CtrTaken and CtrUpdate.
type CtrWidth struct {
	max  uint64 // Mask(w)
	half uint64 // (Mask(w)+1)/2, the lowest taken value
}

// NewCtrWidth returns the counter width w.
func NewCtrWidth(w uint) CtrWidth {
	return CtrWidth{max: Mask(w), half: (Mask(w) + 1) / 2}
}

// Mask is Mask(w), the counter's field mask in a packed row.
func (w CtrWidth) Mask() uint64 { return w.max }

// Taken is CtrTaken(c, w).
func (w CtrWidth) Taken(c uint8) bool { return uint64(c) >= w.half }

// Update is CtrUpdate(c, taken, w).
func (w CtrWidth) Update(c uint8, taken bool) uint8 {
	if taken {
		if uint64(c) < w.max {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// CtrWeak reports whether the counter is in one of its two weak states.
func CtrWeak(c uint8, w uint) bool {
	mid := uint8((Mask(w) + 1) / 2)
	return c == mid || c == mid-1
}

// SatIncS increments a signed saturating counter stored in an int8 with the
// given magnitude bound (counter ranges over [-bound-1, bound]).
func SatIncS(c int8, bound int8) int8 {
	if c < bound {
		return c + 1
	}
	return c
}

// SatDecS decrements a signed saturating counter with the given bound.
func SatDecS(c int8, bound int8) int8 {
	if c > -bound-1 {
		return c - 1
	}
	return c
}

// CtrUpdateS moves a signed saturating counter with the given bound up or
// down by one, the signed counterpart of CtrUpdate.
func CtrUpdateS(c int8, up bool, bound int8) int8 {
	if up {
		return SatIncS(c, bound)
	}
	return SatDecS(c, bound)
}
