package isa

import (
	"strings"
	"testing"

	"cobra/internal/program"
)

func TestMachineALU(t *testing.T) {
	m := NewMachine()
	m.setReg(1, 7)
	m.setReg(2, 3)
	cases := []struct {
		op   opcode
		want int64
	}{
		{opAdd, 10}, {opSub, 4}, {opMul, 21}, {opAnd, 3}, {opOr, 7},
		{opXor, 4}, {opSlt, 0}, {opSll, 56}, {opSrl, 0},
	}
	for _, c := range cases {
		m.exec(&inst{op: c.op, rd: 3, rs1: 1, rs2: 2})
		if got := m.reg(3); got != c.want {
			t.Errorf("op %d: got %d, want %d", c.op, got, c.want)
		}
	}
	m.exec(&inst{op: opAddi, rd: 4, rs1: 1, imm: -2})
	if m.reg(4) != 5 {
		t.Errorf("addi = %d", m.reg(4))
	}
	m.exec(&inst{op: opSlti, rd: 4, rs1: 1, imm: 8})
	if m.reg(4) != 1 {
		t.Errorf("slti = %d", m.reg(4))
	}
}

func TestZeroRegisterHardwired(t *testing.T) {
	m := NewMachine()
	m.setReg(0, 99)
	if m.reg(0) != 0 {
		t.Error("r0 must read as zero")
	}
}

func TestBranchConditions(t *testing.T) {
	m := NewMachine()
	m.setReg(1, 5)
	m.setReg(2, 5)
	m.setReg(3, -1)
	for _, c := range []struct {
		op       opcode
		rs1, rs2 uint8
		want     bool
	}{
		{opBeq, 1, 2, true}, {opBne, 1, 2, false},
		{opBlt, 3, 1, true}, {opBge, 1, 3, true}, {opBlt, 1, 3, false},
	} {
		if got := m.branchTaken(&inst{op: c.op, rs1: c.rs1, rs2: c.rs2}); got != c.want {
			t.Errorf("branch %d(%d,%d) = %v", c.op, c.rs1, c.rs2, got)
		}
	}
}

func TestMemoryWordAligned(t *testing.T) {
	m := NewMachine()
	m.Store(0x1003, 42) // truncates to 0x1000
	if m.Load(0x1000) != 42 || m.Load(0x1007) != 42 {
		t.Error("word alignment broken")
	}
}

func TestAssemblerErrors(t *testing.T) {
	for _, src := range []string{
		"",                  // empty
		"frobnicate r1, r2", // unknown mnemonic
		"add r1, r2",        // missing operand
		"add r1, r2, r99",   // bad register
		"beq r1, r2, nowhere\nj start\nstart: nop\nj start", // unknown label
		"la r1, missing\nj la0\nla0: j la0",                 // unknown la label
		"x: nop\nx: j x",                                    // duplicate label
		".data d 1\n.data d 2\nj m\nm: j m",                 // duplicate data label
		"ld r1, 0[r2]\nj m\nm: j m",                         // bad memory operand
		".space s x\nj m\nm: j m",                           // bad space count
		"nop",                                               // falls off the image
	} {
		if _, _, err := Compile("bad", src); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestCompileBasicLoop(t *testing.T) {
	p, m, err := Compile("loop", `
.data counter 0
start:
    la r5, counter
    ld r6, 0(r5)
    addi r6, r6, 1
    st r6, 0(r5)
    li r7, 100
    blt r6, r7, start
    j start
`)
	if err != nil {
		t.Fatal(err)
	}
	o := program.NewOracle(p, 1)
	for i := 0; i < 1000; i++ {
		o.Next(&program.Step{})
	}
	if got := m.Load(dataBase); got < 100 {
		t.Errorf("counter = %d after 1000 steps", got)
	}
}

func TestSortProgramActuallySorts(t *testing.T) {
	p, m, err := Compile("sort", SortSource)
	if err != nil {
		t.Fatal(err)
	}
	o := program.NewOracle(p, 1)
	// Run enough committed instructions for several main-loop iterations.
	rets := 0
	for rets < 9 { // 3 per iteration (refill, isort, check)
		var s program.Step
		o.Next(&s)
		if s.Inst.Kind == program.KindRet {
			rets++
		}
	}
	// After each check, r20 == 1 means the array verified sorted.
	if m.reg(20) != 1 {
		t.Fatal("check routine did not verify sortedness")
	}
	// Inspect the array directly.
	arr := make([]int64, 12)
	for i := range arr {
		arr[i] = m.Load(dataBase + uint64(i)*8)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatalf("array not sorted: %v", arr)
		}
	}
}

func TestFibProgramComputesFib(t *testing.T) {
	p, m, err := Compile("fib", FibSource)
	if err != nil {
		t.Fatal(err)
	}
	o := program.NewOracle(p, 1)
	// acc is the second data symbol: stk (256 words) then acc.
	accAddr := uint64(dataBase + 256*8)
	for i := 0; i < 200000 && m.Load(accAddr) < 2*144; i++ {
		o.Next(&program.Step{})
	}
	acc := m.Load(accAddr)
	if acc%144 != 0 || acc == 0 {
		t.Errorf("accumulated fib(12) values = %d, want a multiple of 144", acc)
	}
}

func TestDispatchProgramUsesIndirects(t *testing.T) {
	p, _, err := Compile("dispatch", DispatchSource)
	if err != nil {
		t.Fatal(err)
	}
	o := program.NewOracle(p, 1)
	indirects := 0
	targets := map[uint64]bool{}
	for i := 0; i < 30000; i++ {
		var s program.Step
		o.Next(&s)
		if s.Inst.Kind == program.KindIndirect {
			indirects++
			targets[s.Target] = true
		}
	}
	if indirects == 0 {
		t.Fatal("no indirect jumps executed")
	}
	if len(targets) != 4 {
		t.Errorf("dispatch visited %d distinct targets, want 4", len(targets))
	}
}

func TestCompileDeterministic(t *testing.T) {
	sig := func() uint64 {
		p := MustCompile("sort", SortSource)
		o := program.NewOracle(p, 1)
		var s uint64
		for i := 0; i < 20000; i++ {
			var st program.Step
			o.Next(&st)
			s = s*31 + st.PC
			if st.Taken {
				s++
			}
		}
		return s
	}
	if sig() != sig() {
		t.Error("ISA execution not deterministic")
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, _, err := Compile("inline", "start: nop\nj start")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestCommentsAndCase(t *testing.T) {
	_, _, err := Compile("c", `
# full line comment
start:
    NOP        # trailing comment
    ADDI r1, ZERO, 5
    j start
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic on bad source")
		}
	}()
	MustCompile("bad", "nop")
}

func TestAsmErrorMessagesNameLines(t *testing.T) {
	_, _, err := Compile("x", "nop\nbogus r1\nj q\nq: j q")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should name line 2: %v", err)
	}
}
