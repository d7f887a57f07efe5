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

// MixPC folds a fetch PC down to idxBits, discarding the low instOffset bits
// (which are constant within a fetch packet) and XOR-folding the remainder.
// This mirrors the PC hashing used by the RTL counter tables.
func MixPC(pc uint64, instOffset, idxBits uint) uint64 {
	v := pc >> instOffset
	if idxBits == 0 {
		return 0
	}
	var out uint64
	for v != 0 {
		out ^= v & Mask(idxBits)
		v >>= idxBits
	}
	return out
}

// XorFold folds v down to n bits by repeated XOR of n-bit chunks.
func XorFold(v uint64, n uint) uint64 {
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

// Hash2 combines two values with a cheap invertible-ish mix suitable for
// table indexing. It is deliberately simple: hardware index functions are
// XOR/shift networks, not cryptographic hashes.
func Hash2(a, b uint64) uint64 {
	return a ^ (b << 1) ^ (b >> 3)
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
