package bitutil

import "testing"

// FuzzFoldedHistory property-fuzzes the word-packed FoldBits against the
// bit-serial reference fold (FoldBitsRef) over arbitrary history contents,
// history lengths, and fold widths, then drives the incremental
// FoldedHistory through the same history and checks three properties:
//
//  1. FoldBits == FoldBitsRef for the same (hist, histLen, width);
//  2. shifting the history bit-by-bit through FoldedHistory.Update lands on
//     exactly the packed fold of the final window;
//  3. snapshot/restore round-trips: SetRaw(Fold()) and Set(hist) both
//     reproduce the live fold;
//  4. after a further random shift sequence from that state, the
//     branch-free Update equals the branching reference updateRef and the
//     packed fold of the shifted window.
func FuzzFoldedHistory(f *testing.F) {
	f.Add(uint16(64), uint8(12), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(uint16(0), uint8(1), []byte{})
	f.Add(uint16(1), uint8(32), []byte{0x01})
	f.Add(uint16(130), uint8(7), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03})
	f.Add(uint16(640), uint8(11), []byte{0xa5, 0x5a, 0xc3, 0x3c})
	f.Add(uint16(63), uint8(31), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, histLen16 uint16, width8 uint8, raw []byte) {
		histLen := uint(histLen16) % 1024
		width := uint(width8)%32 + 1 // FoldedHistory requires width in [1,32]

		// Decode the fuzz bytes into history words (bit 0 of word 0 is the
		// most recent outcome), sized to cover histLen.
		words := int(histLen+63) / 64
		if words == 0 {
			words = 1
		}
		hist := make([]uint64, words)
		for i := 0; i < len(raw) && i/8 < len(hist); i++ {
			hist[i/8] |= uint64(raw[i]) << (8 * uint(i%8))
		}
		if rem := histLen % 64; rem != 0 {
			hist[len(hist)-1] &= Mask(rem)
		} else if histLen == 0 {
			hist[0] = 0
		}

		// Property 1: packed fold == bit-serial reference fold.
		packed := FoldBits(hist, histLen, width)
		ref := FoldBitsRef(hist, histLen, width)
		if packed != ref {
			t.Fatalf("FoldBits(histLen=%d, width=%d) = %#x, reference = %#x",
				histLen, width, packed, ref)
		}

		// Property 2: the incremental register shifted through the same
		// history lands on the packed fold.  Shift oldest-first so the final
		// window is exactly hist[0:histLen]; the register starts from zero
		// history, so every outgoing bit during the warm-up is zero history
		// older than the window, exactly as in the live Global register.
		fh := NewFoldedHistory(histLen, width)
		for a := int(histLen) - 1; a >= 0; a-- {
			// When hist bit a shifts in, the bit leaving the histLen-wide
			// window has age a+histLen in the final vector (zero while the
			// register is still filling — HistBit reads past-end as false).
			fh.Update(HistBit(hist, uint(a)), HistBit(hist, uint(a)+histLen))
		}
		if fh.Fold() != packed {
			t.Fatalf("incremental fold = %#x, packed recompute = %#x (histLen=%d width=%d)",
				fh.Fold(), packed, histLen, width)
		}

		// Property 3a: raw snapshot round-trip.
		snap := fh.Fold()
		fh.Update(true, HistBit(hist, histLen-1))
		fh.SetRaw(snap)
		if fh.Fold() != snap {
			t.Fatalf("SetRaw round-trip: got %#x, want %#x", fh.Fold(), snap)
		}

		// Property 3b: recompute-from-vector restore matches the packed fold.
		fh.Update(false, HistBit(hist, histLen-1))
		fh.Set(hist)
		if fh.Fold() != packed {
			t.Fatalf("Set(hist) = %#x, want %#x", fh.Fold(), packed)
		}

		// Property 4: shift the fuzz bytes in, bit by bit, through Update
		// and through the reference, over a copy of the history (its words
		// hold at least the histLen-bit window).
		live := append([]uint64(nil), hist...)
		slow := fh.Fold()
		for i := 0; i < 8*len(raw); i++ {
			newBit := raw[i/8]>>(i%8)&1 == 1
			oldBit := HistBit(live, histLen-1)
			fh.Update(newBit, oldBit)
			slow = updateRef(slow, histLen, width, newBit, oldBit)
			shiftIn(live, newBit)
			if fh.Fold() != slow {
				t.Fatalf("shift %d: Update = %#x, reference = %#x (histLen=%d width=%d)",
					i, fh.Fold(), slow, histLen, width)
			}
		}
		if want := FoldBits(live, histLen, width); fh.Fold() != want {
			t.Fatalf("after %d shifts: Update = %#x, FoldBits = %#x", 8*len(raw), fh.Fold(), want)
		}
	})
}

// updateRef is FoldedHistory.Update as first written, branching on each bit
// and masking after every step: the reference the branch-free kernel is
// fuzzed against.
func updateRef(h uint64, histLen, width uint, newBit, oldBit bool) uint64 {
	if histLen == 0 {
		return h
	}
	h = (h << 1) | (h >> (width - 1))
	h &= Mask(width)
	if newBit {
		h ^= 1
	}
	if oldBit {
		h ^= 1 << (histLen % width)
	}
	return h & Mask(width)
}

// FuzzChunkBits pins the word-boundary extraction primitive against a
// bit-serial rebuild: ChunkBits(hist, pos, n) must equal the value whose bit
// i is HistBit(hist, pos+i).
func FuzzChunkBits(f *testing.F) {
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x12, 0x34, 0x56, 0x78, 0x9a}, uint16(60), uint8(8))
	f.Add([]byte{}, uint16(0), uint8(64))
	f.Add([]byte{0xff}, uint16(7), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, pos16 uint16, n8 uint8) {
		pos := uint(pos16) % 512
		n := uint(n8)%64 + 1
		hist := make([]uint64, (len(raw)+7)/8)
		for i, b := range raw {
			hist[i/8] |= uint64(b) << (8 * uint(i%8))
		}
		got := ChunkBits(hist, pos, n)
		var want uint64
		for i := uint(0); i < n; i++ {
			if HistBit(hist, pos+i) {
				want |= 1 << i
			}
		}
		if got != want {
			t.Fatalf("ChunkBits(pos=%d, n=%d) = %#x, want %#x (hist=%x)", pos, n, got, want, hist)
		}
	})
}

// seedWords is a deterministic pseudo-random history for benchmarks.
func seedWords(n int) []uint64 {
	out := make([]uint64, n)
	var x uint64 = 0x9E3779B97F4A7C15
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = x
	}
	return out
}

// BenchmarkFoldBits measures the word-packed recompute on a TAGE-scale
// 640-bit window; BenchmarkFoldBitsRef is the bit-serial baseline it
// replaced (~width× slower).
func BenchmarkFoldBits(b *testing.B) {
	hist := seedWords(10)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= FoldBits(hist, 640, 11)
	}
	_ = sink
}

func BenchmarkFoldBitsRef(b *testing.B) {
	hist := seedWords(10)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= FoldBitsRef(hist, 640, 11)
	}
	_ = sink
}
