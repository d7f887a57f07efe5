package pred

import (
	"math/bits"

	"cobra/internal/bitutil"
)

// Config captures the fetch geometry every sub-component and the composer
// agree on: how many instruction slots a fetch packet holds and how wide an
// instruction is.  The evaluated BOOM configuration (Table II) fetches
// 16-byte packets of four 4-byte instructions.
type Config struct {
	FetchWidth int // instruction slots per fetch packet
	InstBytes  int // bytes per instruction slot
}

// DefaultConfig matches the paper's Table II frontend: 16-byte fetch,
// 4-wide.
func DefaultConfig() Config { return Config{FetchWidth: 4, InstBytes: 4} }

// InstOff is log2(InstBytes): the PC bits constant within an instruction.
// Valid geometry is a power of two, so the log is the trailing-zero count.
func (c Config) InstOff() uint { return uint(bits.TrailingZeros(uint(c.InstBytes))) }

// PktBytes is the fetch packet size in bytes.
func (c Config) PktBytes() int { return c.FetchWidth * c.InstBytes }

// PktOff is log2(PktBytes): the PC bits constant within a fetch packet.
func (c Config) PktOff() uint { return uint(bits.TrailingZeros(uint(c.PktBytes()))) }

// PacketBase aligns pc down to its fetch packet base.
func (c Config) PacketBase(pc uint64) uint64 {
	return pc &^ (uint64(c.PktBytes()) - 1)
}

// SlotPC returns the PC of slot i within the packet at base.
func (c Config) SlotPC(base uint64, i int) uint64 {
	return c.PacketBase(base) + uint64(i*c.InstBytes)
}

// SlotOf returns the slot index of pc within its fetch packet.
func (c Config) SlotOf(pc uint64) int {
	return int(pc>>c.InstOff()) & (c.FetchWidth - 1)
}

// Valid reports whether the geometry is usable (positive power-of-two sizes).
func (c Config) Valid() bool {
	return bitutil.IsPow2(c.FetchWidth) && bitutil.IsPow2(c.InstBytes)
}
