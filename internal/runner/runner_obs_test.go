package runner

import (
	"testing"

	"cobra/internal/obs"
	"cobra/internal/spec"
)

// TestSharedTracerParallelBatch attaches ONE tracer to every execution of a
// parallel fan-out; under -race this proves the Tracer (and every emit site
// feeding it) is safe when jobs run concurrently.
func TestSharedTracerParallelBatch(t *testing.T) {
	tr := obs.NewTracer(1 << 12)
	specs := testSpecs(5_000)
	errs := Map(4, len(specs), func(i int) error {
		_, err := spec.Exec(specs[i], spec.Attach{Observer: tr})
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if tr.Total() == 0 {
		t.Fatal("shared tracer observed no events")
	}
	for _, ev := range tr.Events() {
		if ev.Kind.String() == "invalid" {
			t.Fatalf("invalid event kind %d in shared tracer", ev.Kind)
		}
	}
}

// TestObserverDoesNotChangeResults is the zero-cost contract at batch level:
// event capture, attribution, and metrics must leave every counter
// bit-identical.
func TestObserverDoesNotChangeResults(t *testing.T) {
	plain, err := RunSpecs(testSpecs(10_000), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	observed := testSpecs(10_000)
	for _, s := range observed {
		s.Observe = spec.Observe{Events: true, EventsBuf: 256, Attribution: true}
	}
	full, err := RunSpecs(observed, Options{Workers: 2, Metrics: obs.NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if fp(plain[i]) != fp(full[i]) {
			t.Fatalf("job %d diverged under observation: plain %+v observed %+v",
				i, fp(plain[i]), fp(full[i]))
		}
	}
}

// TestAttributionMatchesCounters checks the H2P acceptance invariant on every
// job of a batch: the per-PC mispredict sum equals the Sim counter, and the
// exec sum equals the committed control-flow total.
func TestAttributionMatchesCounters(t *testing.T) {
	specs := testSpecs(10_000)
	for _, s := range specs {
		s.Observe.Attribution = true
	}
	full, err := RunSpecs(specs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range full {
		prof, sim := r.Outcome.Profile, r.Outcome.Stats
		if prof == nil {
			t.Fatalf("job %d: Attribution set but no profile", i)
		}
		if got, want := prof.TotalMispredicts(), sim.Mispredicts; got != want {
			t.Errorf("job %d: profile mispredicts %d != counter %d", i, got, want)
		}
		cfis := sim.Branches + sim.Jumps + sim.IndirectJumps
		if got := prof.TotalExecs(); got != cfis {
			t.Errorf("job %d: profile execs %d != committed CFIs %d", i, got, cfis)
		}
		if r.Wall <= 0 {
			t.Errorf("job %d: wall-clock not recorded", i)
		}
	}
}

// TestMetricsAccounting checks the runner's job accounting against a batch
// with one deliberately failing job.
func TestMetricsAccounting(t *testing.T) {
	specs := append(testSpecs(5_000), &spec.RunSpec{Topology: "NOPE9", Workload: "dhrystone", Insts: 1})
	met := obs.NewMetrics()
	if _, err := RunSpecs(specs, Options{Workers: 2, Policy: CollectAll, Metrics: met}); err == nil {
		t.Fatal("expected a batch error from the poisoned job")
	}
	s := met.Snap()
	if s.JobsTotal != uint64(len(specs)) || s.JobsDone != uint64(len(specs)) || s.JobsFailed != 1 {
		t.Fatalf("accounting: %+v", s)
	}
	if s.Cycles == 0 || s.Instructions == 0 {
		t.Fatalf("no simulated work recorded: %+v", s)
	}
}
