package spec

import (
	"testing"

	"cobra/internal/interval"
	"cobra/internal/obs"
)

// TestExecTelemetryBaseWithWarmup: progress totals share stats.Sim's base —
// they restart when warmup ends — so the recorder's final snapshot equals
// the result, while the batch metrics count warmup and measurement alike.
func TestExecTelemetryBaseWithWarmup(t *testing.T) {
	s := &RunSpec{Topology: "GTAG3 > BTB2 > BIM2", Workload: "dhrystone", Seed: 5,
		Insts: 60_000, Warmup: 100_000, Observe: Observe{IntervalInsts: 10_000}}
	met := obs.NewMetrics()
	rec := interval.NewRecorder(s.Observe.IntervalInsts, met)
	out, err := Exec(s, Attach{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	p := rec.Snap()
	if p.Cycles != out.Stats.Cycles || p.Insts != out.Stats.Instructions {
		t.Fatalf("progress ends at %d cycles / %d insts, result %d / %d",
			p.Cycles, p.Insts, out.Stats.Cycles, out.Stats.Instructions)
	}
	if p.Phase != obs.PhaseSimulate.String() {
		t.Fatalf("phase = %q", p.Phase)
	}
	if err := rec.Reconcile(out.Stats); err != nil {
		t.Fatal(err)
	}
	m := met.Snap()
	if m.Instructions < out.Stats.Instructions+s.Warmup || m.Cycles <= out.Stats.Cycles {
		t.Fatalf("metrics %d cycles / %d insts do not include the %d-inst warmup (result %d / %d)",
			m.Cycles, m.Instructions, s.Warmup, out.Stats.Cycles, out.Stats.Instructions)
	}
	if out.Intervals == nil || len(out.Intervals.Windows) == 0 || out.Intervals.Windows[0].StartCycle != 0 {
		t.Fatalf("measured windows do not start at the warmup boundary: %+v", out.Intervals)
	}
}
