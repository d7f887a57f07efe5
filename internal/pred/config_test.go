package pred

import (
	"testing"

	"cobra/internal/bitutil"
)

func TestDefaultConfigGeometry(t *testing.T) {
	c := DefaultConfig()
	if !c.Valid() {
		t.Fatal("default config invalid")
	}
	if c.PktBytes() != 16 {
		t.Errorf("PktBytes = %d, want 16 (Table II)", c.PktBytes())
	}
	if c.InstOff() != 2 || c.PktOff() != 4 {
		t.Errorf("offsets = %d/%d, want 2/4", c.InstOff(), c.PktOff())
	}
}

func TestPacketBaseAndSlots(t *testing.T) {
	c := DefaultConfig()
	if got := c.PacketBase(0x1234); got != 0x1230 {
		t.Errorf("PacketBase = %#x", got)
	}
	if got := c.SlotPC(0x1234, 3); got != 0x123C {
		t.Errorf("SlotPC = %#x", got)
	}
	if got := c.SlotOf(0x123C); got != 3 {
		t.Errorf("SlotOf = %d", got)
	}
	// Round trip: every slot of every packet maps back.
	for base := uint64(0x1000); base < 0x1100; base += 16 {
		for i := 0; i < c.FetchWidth; i++ {
			pc := c.SlotPC(base, i)
			if c.PacketBase(pc) != base || c.SlotOf(pc) != i {
				t.Fatalf("slot round trip failed at %#x slot %d", base, i)
			}
		}
	}
}

func TestWideConfigGeometry(t *testing.T) {
	// The paper's RVC configuration: 16-byte packets of eight 2-byte slots.
	c := Config{FetchWidth: 8, InstBytes: 2}
	if !c.Valid() || c.PktBytes() != 16 {
		t.Fatal("wide config geometry wrong")
	}
	if c.SlotOf(c.SlotPC(0x2000, 7)) != 7 {
		t.Error("wide slot round trip failed")
	}
}

// TestOffsetsMatchClog2 pins the trailing-zero InstOff and PktOff to
// Clog2 for every valid geometry up to 64 slots of 64 bytes.
func TestOffsetsMatchClog2(t *testing.T) {
	for fw := 1; fw <= 64; fw *= 2 {
		for ib := 1; ib <= 64; ib *= 2 {
			c := Config{FetchWidth: fw, InstBytes: ib}
			if !c.Valid() {
				t.Fatalf("%+v should be valid", c)
			}
			if got, want := c.InstOff(), bitutil.Clog2(ib); got != want {
				t.Errorf("%+v: InstOff = %d, Clog2 = %d", c, got, want)
			}
			if got, want := c.PktOff(), bitutil.Clog2(fw*ib); got != want {
				t.Errorf("%+v: PktOff = %d, Clog2 = %d", c, got, want)
			}
		}
	}
}

func TestInvalidConfigs(t *testing.T) {
	for _, c := range []Config{
		{FetchWidth: 3, InstBytes: 4},
		{FetchWidth: 4, InstBytes: 3},
		{FetchWidth: 0, InstBytes: 4},
	} {
		if c.Valid() {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestCFIKindStrings(t *testing.T) {
	for k := KindNone; k <= KindIndirect; k++ {
		if k.String() == "invalid" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if CFIKind(99).String() != "invalid" {
		t.Error("out-of-range kind should be invalid")
	}
}
