package workloads

import (
	"testing"

	"cobra/internal/program"
)

func TestAllWorkloadsBuildAndValidate(t *testing.T) {
	names := append(Names(), "dhrystone", "coremark", "sort", "fib", "dispatch")
	for _, n := range names {
		p, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		// ISA kernels are legitimately tiny; generated proxies must not be.
		if p.Len() < 30 && n != "fib" && n != "sort" && n != "dispatch" {
			t.Errorf("%s: suspiciously small image (%d insts)", n, p.Len())
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Get("nosuch"); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestOracleRunsForMillions(t *testing.T) {
	for _, n := range Names() {
		p, _ := Get(n)
		o := program.NewOracle(p, 42)
		branches := 0
		for i := 0; i < 200000; i++ {
			var s program.Step
			o.Next(&s)
			if s.Inst.Kind == program.KindBranch {
				branches++
			}
		}
		if branches == 0 {
			t.Errorf("%s: no branches in 200k instructions", n)
		}
		density := float64(branches) / 200000
		if density < 0.02 || density > 0.5 {
			t.Errorf("%s: implausible branch density %.3f", n, density)
		}
	}
}

func TestWorkloadsAreDeterministic(t *testing.T) {
	sig := func() uint64 {
		p, _ := Get("gcc")
		o := program.NewOracle(p, 42)
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
		t.Error("workload generation/execution is not deterministic")
	}
}

func TestProfilesHaveDistinctSeeds(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range profiles {
		if prev, dup := seen[p.Seed]; dup {
			t.Errorf("profiles %s and %s share seed %d", prev, p.Name, p.Seed)
		}
		seen[p.Seed] = p.Name
	}
}

func TestISAWorkloadsExecute(t *testing.T) {
	for _, n := range []string{"sort", "fib", "dispatch"} {
		p, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		o := program.NewOracle(p, 1)
		branches, cfis := 0, 0
		for i := 0; i < 50000; i++ {
			var s program.Step
			o.Next(&s)
			if s.Inst.Kind == program.KindBranch {
				branches++
			}
			if s.Inst.Kind.IsCFI() {
				cfis++
			}
		}
		if cfis == 0 {
			t.Errorf("%s: no control flow executed", n)
		}
		if n != "dispatch" && branches == 0 {
			t.Errorf("%s: no conditional branches executed", n)
		}
	}
}

func TestGetProfile(t *testing.T) {
	p, ok := GetProfile("mcf")
	if !ok || p.Name != "mcf" {
		t.Error("GetProfile(mcf) failed")
	}
	if _, ok := GetProfile("dhrystone"); ok {
		t.Error("dhrystone is not a SPECint proxy profile")
	}
}

func TestCoreMarkHasHammocks(t *testing.T) {
	p := CoreMark()
	hammocks := 0
	for pc := p.Entry; pc < p.Entry+uint64(p.Len()*8); pc += 4 {
		i := p.At(pc)
		if i == nil || i.Kind != program.KindBranch {
			continue
		}
		if i.Target > i.PC && (i.Target-i.PC)/4 <= 8 {
			hammocks++
		}
	}
	if hammocks < 4 {
		t.Errorf("coremark proxy should be hammock-rich, found %d", hammocks)
	}
}

func TestHardnessOrdering(t *testing.T) {
	// The profile knobs should make mcf/leela harder (more WHard weight)
	// than perlbench/x264 — a static sanity check on the calibration.
	frac := func(name string) float64 {
		p, _ := GetProfile(name)
		tot := p.WEasy + p.WHard + p.WPattern + p.WCorr + p.WLocal
		return p.WHard / tot
	}
	if !(frac("mcf") > frac("perlbench") && frac("leela") > frac("x264")) {
		t.Error("hard-branch fractions do not reflect the SPECint hardness ordering")
	}
}

func TestGetMemoizesSyntheticPrograms(t *testing.T) {
	for _, name := range []string{"gcc", "dhrystone", "coremark"} {
		a, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: Get rebuilt a cacheable program", name)
		}
		if a.SingleUse {
			t.Errorf("%s: cached program marked single-use", name)
		}
	}
	// ISA kernels interpret a mutable machine: every Get must be fresh.
	a, err := Get("sort")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get("sort")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("sort: single-use ISA program was shared")
	}
	if !a.SingleUse {
		t.Error("sort: ISA program not marked single-use")
	}
}

func TestBuildWithGeometryMemoizesPerWidth(t *testing.T) {
	p, ok := GetProfile("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	if BuildWithGeometry(p, 4) != BuildWithGeometry(p, 4) {
		t.Error("same geometry rebuilt")
	}
	if BuildWithGeometry(p, 4) == BuildWithGeometry(p, 2) {
		t.Error("different geometries shared one program")
	}
}
