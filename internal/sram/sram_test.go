package sram

import (
	"strings"
	"testing"
	"testing/quick"
)

func spec() Spec {
	return Spec{Name: "bht", Entries: 16, Width: 2, ReadPorts: 1, WritePorts: 1}
}

func TestSpecAccounting(t *testing.T) {
	s := Spec{Name: "t", Entries: 2048, Width: 2}
	if s.Bits() != 4096 {
		t.Errorf("Bits = %d, want 4096", s.Bits())
	}
	if s.Bytes() != 512 {
		t.Errorf("Bytes = %d, want 512", s.Bytes())
	}
	s.Width = 3
	if s.Bytes() != (2048*3+7)/8 {
		t.Errorf("Bytes rounding wrong: %d", s.Bytes())
	}
	if !strings.Contains(s.String(), "2048x3b") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestBudgetAdd(t *testing.T) {
	a := Budget{Mems: []Spec{{Name: "a", Entries: 8, Width: 8}}, FlopBits: 10}
	b := Budget{Mems: []Spec{{Name: "b", Entries: 4, Width: 4}}, FlopBits: 5}
	sum := a.Add(b)
	if sum.TotalBits() != 8*8+4*4+15 {
		t.Errorf("TotalBits = %d", sum.TotalBits())
	}
	if len(sum.Mems) != 2 {
		t.Errorf("merged mems = %d, want 2", len(sum.Mems))
	}
	// Add must not mutate its operands.
	if a.TotalBits() != 74 || b.TotalBits() != 21 {
		t.Error("Add mutated operands")
	}
}

func TestMemReadWrite(t *testing.T) {
	m := New(spec())
	m.Tick(1)
	m.Write(3, 0b11)
	m.Tick(2)
	if got := m.Read(3); got != 0b11 {
		t.Errorf("Read(3) = %d, want 3", got)
	}
	// Width masking.
	m.Tick(3)
	m.Write(4, 0xff)
	if got := m.Peek(4); got != 0b11 {
		t.Errorf("width mask: got %d, want 3", got)
	}
}

// TestMemIndexWraps pins that masking addresses the same row as the
// modulo it replaced, for indices past Entries, on all four accessors.
func TestMemIndexWraps(t *testing.T) {
	m := New(Spec{Name: "w", Entries: 64, Width: 16, ReadPorts: 1, WritePorts: 1})
	for _, idx := range []int{19, 64, 65, 127, 128 + 5, 1<<20 + 9, 1<<40 + 63} {
		row := idx % 64
		m.Tick(uint64(idx))
		m.Write(idx, uint64(idx)&0xffff)
		if got := m.Peek(row); got != uint64(idx)&0xffff {
			t.Errorf("Write(%d) landed elsewhere: row %d = %#x", idx, row, got)
		}
		m.Poke(idx, 0x5a)
		if got := m.Read(row); got != 0x5a {
			t.Errorf("Poke(%d): row %d = %#x, want 0x5a", idx, row, got)
		}
		m.Poke(row, 0xa5)
		if got := m.Peek(idx); got != 0xa5 {
			t.Errorf("Peek(%d) = %#x, want row %d's 0xa5", idx, got, row)
		}
		m.Tick(uint64(idx) + 1)
		if got := m.Read(idx); got != 0xa5 {
			t.Errorf("Read(%d) = %#x, want row %d's 0xa5", idx, got, row)
		}
	}
}

// TestAttachedClock checks that memories sharing a clock word restart their
// per-cycle port counts when the word changes, and that their own Tick no
// longer does.
func TestAttachedClock(t *testing.T) {
	var clock uint64
	a, b := New(spec()), New(spec())
	a.CheckPorts, b.CheckPorts = true, true
	a.Attach(&clock)
	b.Attach(&clock)
	a.Read(0)
	b.Write(0, 1)
	clock++
	a.Read(0) // must not panic: the shared clock moved
	b.Write(0, 1)
	a.Tick(99) // an attached memory ignores its own clock
	if a.MaxReadsPerCycle != 1 || b.MaxWritesPerCycle != 1 {
		t.Fatalf("max per cycle = %d reads, %d writes; want 1, 1", a.MaxReadsPerCycle, b.MaxWritesPerCycle)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected port-overuse panic: Tick must not start a cycle for an attached memory")
		}
	}()
	a.Read(0)
}

func TestPortCheckPanics(t *testing.T) {
	m := New(spec())
	m.CheckPorts = true
	m.Tick(1)
	m.Read(0)
	defer func() {
		if recover() == nil {
			t.Error("expected port-overuse panic")
		}
	}()
	m.Read(1) // second read in same cycle on a 1R mem
}

func TestPortPressureRecordedWithoutPanic(t *testing.T) {
	m := New(spec())
	m.Tick(1)
	m.Read(0)
	m.Read(1)
	m.Read(2)
	if m.MaxReadsPerCycle != 3 {
		t.Errorf("MaxReadsPerCycle = %d, want 3", m.MaxReadsPerCycle)
	}
	m.Tick(2)
	m.Read(0)
	if m.MaxReadsPerCycle != 3 {
		t.Errorf("max must persist across cycles, got %d", m.MaxReadsPerCycle)
	}
}

func TestTickResetsPortUse(t *testing.T) {
	m := New(spec())
	m.CheckPorts = true
	m.Tick(1)
	m.Read(0)
	m.Tick(2)
	m.Read(0) // must not panic: new cycle
	m.Write(0, 1)
	m.Tick(3)
	m.Tick(2)
	m.Read(0) // must not panic: a revisited cycle is a new one too
}

func TestResetClearsEverything(t *testing.T) {
	m := New(spec())
	m.Tick(1)
	m.Write(5, 3)
	m.Read(5)
	m.Reset()
	if m.Peek(5) != 0 || m.TotalReads != 0 || m.TotalWrites != 0 || m.MaxReadsPerCycle != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New(Spec{Name: "wide", Entries: 64, Width: 48, ReadPorts: 4, WritePorts: 4})
	f := func(idx int, v uint64) bool {
		if idx < 0 {
			idx = -idx
		}
		m.Poke(idx, v)
		return m.Peek(idx) == v&((1<<48)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadSpec(t *testing.T) {
	for _, n := range []int{0, 3, 1000} { // rows must be a power of two
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with %d rows did not panic", n)
				}
			}()
			New(Spec{Name: "bad", Entries: n, Width: 2, ReadPorts: 1, WritePorts: 1})
		}()
	}
}
