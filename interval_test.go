package cobra

// Determinism pin for the interval-telemetry subsystem: the windowed series
// is derived purely from the deterministic simulation, so its content hash
// must be byte-identical however the run is scheduled — one worker or many,
// in-process or through a cobra-serve daemon.  A hash drift here means
// nondeterminism leaked into the sampling path (map iteration order, ring
// state bleeding between runs, wall-clock-dependent window closes), which
// would make cobra-diff's divergence reports meaningless.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cobra/internal/backend"
	"cobra/internal/client"
	"cobra/internal/interval"
	"cobra/internal/runner"
	"cobra/internal/serve"
	"cobra/internal/spec"
)

// intervalSpecs returns the Table I design points with interval sampling on:
// short budgets, a window size that yields several windows, and a warmup
// slice so the Rebase path is exercised too.
func intervalSpecs(t *testing.T) []*spec.RunSpec {
	t.Helper()
	var out []*spec.RunSpec
	for _, d := range []string{"tage-l", "b2", "tourney"} {
		s, err := spec.Preset(d)
		if err != nil {
			t.Fatal(err)
		}
		s.Workload = "dhrystone"
		s.Insts = 100_000
		s.Warmup = 10_000
		s.Observe.IntervalInsts = 20_000
		out = append(out, s)
	}
	return out
}

func intervalHashes(t *testing.T, workers int) []string {
	t.Helper()
	specs := intervalSpecs(t)
	res, err := runner.RunSpecs(specs, runner.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, len(res))
	for i, r := range res {
		set := r.Outcome.Intervals
		if set == nil || len(set.Windows) == 0 {
			t.Fatalf("spec %d recorded no intervals", i)
		}
		if set.Hash == "" {
			t.Fatalf("spec %d interval set has no hash", i)
		}
		hashes[i] = set.Hash
	}
	return hashes
}

func TestIntervalHashParallelismInvariant(t *testing.T) {
	serial := intervalHashes(t, 1)
	parallel := intervalHashes(t, runtime.GOMAXPROCS(0))
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("spec %d: -j 1 hash %s != -j %d hash %s",
				i, serial[i], runtime.GOMAXPROCS(0), parallel[i])
		}
	}
}

func TestIntervalHashBackendInvariant(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	remote, err := backend.NewRemote(client.Config{BaseURL: ts.URL, Poll: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	local := intervalHashes(t, 1)
	specs := intervalSpecs(t)
	for i, s := range specs {
		out, err := remote.Run(context.Background(), s)
		if err != nil {
			t.Fatalf("spec %d remote: %v", i, err)
		}
		if out.Intervals == nil {
			t.Fatalf("spec %d: remote outcome has no intervals", i)
		}
		if out.Intervals.Hash != local[i] {
			t.Errorf("spec %d: remote hash %s != local hash %s", i, out.Intervals.Hash, local[i])
		}
		// The wire carried the windows, not just the hash — and the hash is
		// honest: recomputing it from the windows gives the same value.
		if got := out.Intervals.ContentHash(); got != out.Intervals.Hash {
			t.Errorf("spec %d: remote set hash %s does not match its content %s", i, out.Intervals.Hash, got)
		}
	}
}

// TestIntervalSamplingDoesNotPerturbResults: the golden-table guarantee —
// turning interval telemetry on changes what is *observed*, never what is
// *simulated*.  Counters must be bit-identical with sampling on and off.
func TestIntervalSamplingDoesNotPerturbResults(t *testing.T) {
	for _, d := range []string{"tage-l", "b2"} {
		base, err := spec.Preset(d)
		if err != nil {
			t.Fatal(err)
		}
		base.Workload = "dhrystone"
		base.Insts = 60_000
		bare, err := spec.Exec(base, spec.Attach{})
		if err != nil {
			t.Fatal(err)
		}
		sampled := base.Clone()
		sampled.Observe.IntervalInsts = 10_000
		got, err := spec.Exec(sampled, spec.Attach{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare.Stats, got.Stats) {
			t.Fatalf("%s: counters changed with intervals enabled:\nbare:    %+v\nsampled: %+v",
				d, bare.Stats, got.Stats)
		}
		if got.Intervals == nil || len(got.Intervals.Windows) != 6 {
			t.Fatalf("%s: want 6 windows over 60k insts, got %+v", d, got.Intervals)
		}
		if got.Intervals.IntervalInsts != 10_000 {
			t.Fatalf("%s: IntervalInsts = %d", d, got.Intervals.IntervalInsts)
		}
	}
}

// TestIntervalDefaultWindow: the recorder applies no default — a zero window
// size turns windows off, and a spec without observe.interval_insts returns
// no interval set — so DefaultInsts is applied only by the tools that turn
// sampling on (cobra-sim -intervals, cobra-diff).
func TestIntervalDefaultWindow(t *testing.T) {
	if got := interval.NewRecorder(0, nil).IntervalInsts(); got != 0 {
		t.Fatalf("zero window became %d", got)
	}
	sp, err := spec.Preset("b2")
	if err != nil {
		t.Fatal(err)
	}
	sp.Workload = "fib"
	sp.Insts = 20_000
	out, err := spec.Exec(sp, spec.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Intervals != nil {
		t.Fatalf("unsampled run returned %d windows", len(out.Intervals.Windows))
	}
}
