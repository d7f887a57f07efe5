package faults_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"cobra/internal/components"
	"cobra/internal/compose"
	"cobra/internal/faults"
	"cobra/internal/history"
	"cobra/internal/pred"
	"cobra/internal/program"
	"cobra/internal/uarch"
)

// faultProg is a mispredict-heavy synthetic workload: a loop of data-dependent
// hammocks drives fire, mispredict, repair, and update traffic through every
// wrapped component.
func faultProg(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("faulty", 0x1000, 4, 5)
	b.Loop(40, func() {
		b.Ops(2, 0, 0, 0, nil)
		b.Hammock(0.5, 2, program.ClassALU)
	})
	return b.MustSeal()
}

// runWithPlan builds the B2 design with the plan's injectors wired in via
// Options.Wrap and runs it on the real core.
func runWithPlan(t testing.TB, plan *faults.Plan, paranoid bool) *compose.Pipeline {
	t.Helper()
	opt := compose.Options{GHistBits: 16, Paranoid: paranoid, Wrap: plan.Wrap}
	p, err := compose.New(pred.DefaultConfig(), compose.MustParse("GTAG3 > BTB2 > BIM2"), opt)
	if err != nil {
		t.Fatal(err)
	}
	core := uarch.NewCore(uarch.DefaultConfig(), p, faultProg(t), 7)
	core.Run(15_000)
	return p
}

// TestDeterministicSchedule is the injector's reproducibility contract: the
// same plan over the same run yields a bit-identical fault record stream, and
// a different seed yields a different one.
func TestDeterministicSchedule(t *testing.T) {
	capture := func(seed uint64) []faults.Record {
		var recs []faults.Record
		plan := &faults.Plan{Seed: seed, Period: 64, Kinds: faults.AllKinds,
			OnFault: func(r faults.Record) { recs = append(recs, r) }}
		runWithPlan(t, plan, false)
		if plan.TotalInjected() == 0 {
			t.Fatal("plan injected nothing; schedule untestable")
		}
		if got := uint64(len(recs)); got != plan.TotalInjected() {
			t.Fatalf("OnFault saw %d records, counters say %d", got, plan.TotalInjected())
		}
		return recs
	}
	a, b := capture(11), capture(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault schedules (%d vs %d records)", len(a), len(b))
	}
	if c := capture(12); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

// TestDistinctKindsFire demonstrates that a full-core run under AllKinds
// injects at least four distinct deterministic fault kinds.
func TestDistinctKindsFire(t *testing.T) {
	plan := &faults.Plan{Seed: 3, Period: 32, Kinds: faults.AllKinds}
	runWithPlan(t, plan, false)
	inj := plan.Injected()
	if len(inj) < 4 {
		t.Fatalf("only %d distinct fault kinds fired (%v); want >= 4", len(inj), inj)
	}
	t.Logf("injected %d faults across %d kinds: %v", plan.TotalInjected(), len(inj), inj)
}

// TestParanoidCatchesCorruptMeta: a corrupted metadata blob violates the
// §III-D round-trip contract, and paranoid mode must attribute the violation
// to the wrapped component.
func TestParanoidCatchesCorruptMeta(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Period: 64, Kinds: faults.CorruptMeta}
	p := runWithPlan(t, plan, true)
	if plan.TotalInjected() == 0 {
		t.Fatal("no corrupt-meta faults injected")
	}
	if p.ViolationCount() == 0 {
		t.Fatal("paranoid mode missed injected metadata corruption")
	}
	v := p.Violations()[0]
	if v.Component == "" {
		t.Errorf("violation not attributed to a component: %v", v)
	}
	if !strings.Contains(v.Error(), "metadata") {
		t.Errorf("violation %v does not describe a metadata round-trip failure", v)
	}
}

// TestScopedWrap: components outside Plan.Components pass through unwrapped,
// and a disabled plan wraps nothing.
func TestScopedWrap(t *testing.T) {
	scoped := &faults.Plan{Seed: 1, Period: 8, Kinds: faults.AllKinds, Components: []string{"btb2"}}
	runWithPlan(t, scoped, false)
	if n := len(scoped.Injectors()); n != 1 {
		t.Fatalf("component-scoped plan wrapped %d components, want 1", n)
	}
	if name := scoped.Injectors()[0].Inner().Name(); name != "BTB2" {
		t.Fatalf("wrapped %q, want BTB2 (case-insensitive match)", name)
	}
	off := &faults.Plan{Seed: 1, Period: 0, Kinds: faults.AllKinds}
	runWithPlan(t, off, true)
	if n := len(off.Injectors()); n != 0 {
		t.Fatalf("period-0 plan wrapped %d components, want 0", n)
	}
}

// TestInjectorForwardsStorage: a wrapped component exposes the inner
// component's memories (same pointers, same order) and its local-history
// need, so the pipeline clock, the energy model and the composer's
// local-history provider see through the injector.
func TestInjectorForwardsStorage(t *testing.T) {
	plan := &faults.Plan{Seed: 1, Period: 64, Kinds: faults.AllKinds}
	env := components.Env{Cfg: pred.DefaultConfig(), Global: history.NewGlobal(128)}
	withMems, withLocal := 0, 0
	for _, base := range components.Registered() {
		t.Run(base, func(t *testing.T) {
			inner, err := components.Build(env, base)
			if err != nil {
				t.Fatal(err)
			}
			w := plan.Wrap(inner)
			if _, ok := w.(*faults.Injector); !ok {
				t.Fatalf("Wrap returned %T, want *faults.Injector", w)
			}
			if got, want := w.Mems(), inner.Mems(); !slices.Equal(got, want) {
				t.Errorf("Mems() = %p, inner has %p", got, want)
			}
			if got, want := w.UsesLocalHistory(), inner.UsesLocalHistory(); got != want {
				t.Errorf("UsesLocalHistory() = %v, inner says %v", got, want)
			}
			if len(inner.Mems()) > 0 {
				withMems++
			}
			if inner.UsesLocalHistory() {
				withLocal++
			}
		})
	}
	if withMems == 0 || withLocal == 0 {
		t.Errorf("sweep covered %d components with memories and %d with local history; both must be nonzero",
			withMems, withLocal)
	}
}

func TestParseKinds(t *testing.T) {
	k, err := faults.ParseKinds("corrupt-meta,drop-update")
	if err != nil || k != faults.CorruptMeta|faults.DropUpdate {
		t.Fatalf("ParseKinds = %v, %v", k, err)
	}
	if k, err := faults.ParseKinds("all"); err != nil || k != faults.AllKinds {
		t.Fatalf(`ParseKinds("all") = %v, %v`, k, err)
	}
	if _, err := faults.ParseKinds("bit-rot"); err == nil {
		t.Fatal("unknown kind must error")
	}
	// String/ParseKinds round-trip over every single kind and the full mask.
	for _, k := range []faults.Kind{faults.CorruptMeta, faults.DropUpdate,
		faults.DupUpdate, faults.DelayFire, faults.DelayRepair,
		faults.FlipDirection, faults.FlipTarget, faults.AllKinds} {
		back, err := faults.ParseKinds(k.String())
		if err != nil || back != k {
			t.Errorf("round-trip of %q = %v, %v", k, back, err)
		}
	}
	if faults.Kind(0).String() != "none" {
		t.Errorf("zero mask renders %q", faults.Kind(0).String())
	}
}
