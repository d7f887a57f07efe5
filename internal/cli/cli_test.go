package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cobra/internal/client"
	"cobra/internal/interval"
	"cobra/internal/serve"
	"cobra/internal/spec"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes of a progress
// reporter and the goroutine that reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// run executes `cobra args...` in process and returns the exit status and
// what the run wrote to stdout and stderr.
func run(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errs syncBuffer
	code = Run(args, &out, &errs)
	return code, out.String(), errs.String()
}

// mustRun is run for invocations that must succeed; it returns stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := run(t, args...)
	if code != 0 {
		t.Fatalf("cobra %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// TestProgressReporting: -progress starts a reporter that prints the metrics
// sink's status line at its period and stops with the telemetry closer;
// under -server no local line is printed.
func TestProgressReporting(t *testing.T) {
	telemetry := func(args ...string) string {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		c := DefaultConfig()
		c.bind(fs, gProgress|gServer)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		var w syncBuffer
		met, stop, err := c.telemetry(slog.New(slog.NewTextHandler(io.Discard, nil)), &w)
		if err != nil {
			t.Fatal(err)
		}
		met.AddJobs(2)
		met.JobStarted()
		met.JobDone(false)
		// Wait for the first heartbeat (or, when none is due, give a
		// reporter ten periods to print one it should not).
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			time.Sleep(50 * time.Millisecond)
			if met == nil || w.String() != "" {
				break
			}
		}
		stop()
		return w.String()
	}
	if out := telemetry("-progress", "5ms"); !strings.Contains(out, "1/2 jobs done") {
		t.Errorf("no progress heartbeat written; got %q", out)
	}
	if out := telemetry("-progress", "5ms", "-server", "http://127.0.0.1:1"); out != "" {
		t.Errorf("-server run printed a local progress line: %q", out)
	}
}

// TestProgressPrinter: the daemon's progress stream renders one line per
// phase transition of each run, tagged with its digest prefix, and nothing
// for the terminal frame.
func TestProgressPrinter(t *testing.T) {
	var w bytes.Buffer
	p := &progressPrinter{w: &w, seen: map[string]string{}}
	a, b := "sha256:aaaaaaaaaaaaaaaa", "sha256:bbbbbbbbbbbbbbbb"
	for _, ev := range []interval.Progress{
		{Digest: a, Status: "queued", Phase: "queued", QueuePos: 2},
		{Digest: a, Status: "queued", Phase: "queued", QueuePos: 1},
		{Digest: b, Status: "running", Phase: "simulate", Cycles: 10, Insts: 5, TargetInsts: 100},
		{Digest: a, Status: "running", Phase: "simulate", Cycles: 8, Insts: 4},
		{Digest: a, Status: "done", Phase: "done", Done: true},
	} {
		p.update(ev)
	}
	want := "run aaaaaaaaaaaa: queued phase=queued queue_pos=2\n" +
		"run bbbbbbbbbbbb: running phase=simulate cycles=10 insts=5/100\n" +
		"run aaaaaaaaaaaa: running phase=simulate cycles=8 insts=4\n"
	if w.String() != want {
		t.Errorf("progress lines:\n%s\nwant:\n%s", w.String(), want)
	}
}

// TestFlagSurface pins every subcommand's flag names and defaults against
// testdata/flags.golden, which was generated from the -h output of the
// standalone tools the subcommands replaced: no flag added, removed or
// re-defaulted.  The machine-dependent -j default is written GOMAXPROCS.
func TestFlagSurface(t *testing.T) {
	var got strings.Builder
	for _, cmd := range commands {
		fs, _, _ := cmd.flags(io.Discard)
		fs.VisitAll(func(f *flag.Flag) {
			def := f.DefValue
			if f.Name == "j" && def == strconv.Itoa(runtime.GOMAXPROCS(0)) {
				def = "GOMAXPROCS"
			}
			fmt.Fprintf(&got, "%s -%s=%s\n", cmd.name, f.Name, def)
		})
	}
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface drifted from testdata/flags.golden; got:\n%s", got.String())
	}
}

// TestRunTwiceIndependent: every Run binds its flags to a fresh
// DefaultConfig, so nothing one invocation parses leaks into the next — the
// same subcommand run twice in one process with different args gives the
// results of two separate processes, and one subcommand's adjusted defaults
// (sweep's -insts 300000) never reach another.
func TestRunTwiceIndependent(t *testing.T) {
	first := mustRun(t, "sim", "-print-spec")
	other := mustRun(t, "sim", "-print-spec", "-design", "b2", "-workload", "fib", "-insts", "5000",
		"-paranoid", "-events", "x.bin", "-sparkline", "-faults", "all", "-fault-period", "9")
	mustRun(t, "sweep", "-print-set", "-insts", "7", "-workload", "fib")
	again := mustRun(t, "sim", "-print-spec")
	if first == other {
		t.Fatal("differently flagged runs printed the same spec")
	}
	if again != first {
		t.Errorf("second default run differs from the first:\n%s\nvs\n%s", again, first)
	}
	s, err := spec.Parse([]byte(again))
	if err != nil {
		t.Fatal(err)
	}
	if s.Insts != spec.DefaultInsts || s.Workload != "dhrystone" || s.Paranoid || s.Faults != nil || s.Observe.Events {
		t.Errorf("state leaked into a default run: %+v", s)
	}
}

// TestExitCodes: the dispatcher maps every outcome of every subcommand to
// the standalone tools' exit statuses — 0 for success, -version and -h; 2
// for a bad flag; 1 with a "cobra-<sub>: " stderr prefix for a failed run —
// and cobra diff's 0 identical / 2 divergent / 1 error contract.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	faulty := filepath.Join(dir, "faulty.json")
	s, err := spec.Parse([]byte(mustRun(t, "sim", "-print-spec", "-workload", "fib", "-insts", "20000")))
	if err != nil {
		t.Fatal(err)
	}
	write := func(path string, s *spec.RunSpec) {
		var b bytes.Buffer
		if err := printCanonical(&b, io.Discard, s); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(base, s)
	s.Faults = &spec.FaultPlan{Seed: 7, Period: 500, Kinds: []string{"flip-direction"}}
	write(faulty, s)
	events, trace := filepath.Join(dir, "ev.bin"), filepath.Join(dir, "fib.cbrt")

	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"sim", "-workload", "fib", "-insts", "20000", "-events", events}, 0},
		{[]string{"sim", "-policy", "bogus"}, 1},
		{[]string{"sweep", "-designs", "-workloads", "fib", "-insts", "5000", "-j", "1"}, 0},
		{[]string{"sweep", "-tagesizes", "x"}, 1},
		{[]string{"experiments", "-exp", "table1"}, 0},
		{[]string{"experiments", "-exp", "nonesuch"}, 1},
		{[]string{"compose", "-f", "../../fleets/paper-small.yaml", "-list"}, 0},
		{[]string{"compose", "-f", filepath.Join(dir, "missing.yaml")}, 1},
		{[]string{"serve", "-cache-dir", filepath.Join(dir, "missing")}, 1},
		{[]string{"diff", base, base}, 0},
		{[]string{"diff", base, faulty}, 2},
		{[]string{"diff", "-no-bisect", base, faulty}, 2},
		{[]string{"diff", base}, 1},
		{[]string{"diff", base, "sha256:00"}, 1},
		{[]string{"events", "-i", events, "-stats"}, 0},
		{[]string{"events"}, 1},
		{[]string{"trace", "-capture", "-workload", "fib", "-insts", "5000", "-o", trace}, 0},
		{[]string{"trace", "-sim", "-design", "b2", "-i", trace}, 0},
		{[]string{"trace"}, 1},
		{[]string{"area", "-design", "b2"}, 0},
		{[]string{"area", "-design", "nonesuch"}, 1},
		{[]string{"diagram", "-fig", "2"}, 0},
		{[]string{"diagram", "-fig", "3"}, 1},
	} {
		code, _, stderr := run(t, tc.args...)
		if code != tc.code {
			t.Errorf("cobra %s: exit %d, want %d; stderr:\n%s", strings.Join(tc.args, " "), code, tc.code, stderr)
		}
		if prefix := "cobra-" + tc.args[0] + ": "; code == 1 && !strings.HasPrefix(stderr, prefix) &&
			!strings.Contains(stderr, "\n"+prefix) {
			t.Errorf("cobra %s: error not reported as %q:\n%s", strings.Join(tc.args, " "), prefix, stderr)
		}
	}

	for _, cmd := range commands {
		if code, _, _ := run(t, cmd.name, "-h"); code != 0 {
			t.Errorf("cobra %s -h: exit %d, want 0", cmd.name, code)
		}
		if code, _, stderr := run(t, cmd.name, "-no-such-flag"); code != 2 || !strings.Contains(stderr, "-no-such-flag") {
			t.Errorf("cobra %s -no-such-flag: exit %d, want 2; stderr:\n%s", cmd.name, code, stderr)
		}
		if code, stdout, _ := run(t, cmd.name, "-version"); code != 0 || !strings.HasPrefix(stdout, "cobra-"+cmd.name+" ") {
			t.Errorf("cobra %s -version: exit %d, stdout %q", cmd.name, code, stdout)
		}
	}
	for _, tc := range []struct {
		args []string
		code int
	}{{nil, 2}, {[]string{"nonesuch"}, 2}, {[]string{"-h"}, 0}, {[]string{"help"}, 0}} {
		if code, _, stderr := run(t, tc.args...); code != tc.code || !strings.Contains(stderr, "subcommands:") {
			t.Errorf("cobra %v: exit %d, want %d with usage; stderr:\n%s", tc.args, code, tc.code, stderr)
		}
	}
}

// TestTimeoutFailsEveryGrid: -timeout bounds every simulation, on the
// backend path (d2), the in-process path (energy) and every cell of a sweep
// alike, and an overrun is a failed run (exit 1), not a panic.
func TestTimeoutFailsEveryGrid(t *testing.T) {
	for _, args := range [][]string{
		{"experiments", "-exp", "d2", "-insts", "50000000", "-timeout", "1ms", "-j", "1"},
		{"experiments", "-exp", "energy", "-insts", "50000000", "-timeout", "1ms", "-j", "1"},
		{"sweep", "-designs", "-workloads", "gcc", "-insts", "50000000", "-timeout", "1ms", "-j", "1", "-keep-going"},
	} {
		code, _, stderr := run(t, args...)
		if code != 1 || !strings.Contains(stderr, context.DeadlineExceeded.Error()) {
			t.Errorf("cobra %s: exit %d, want 1 with a deadline-exceeded error; stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
	}
}

// TestProgressReportsGrids: -progress prints the runner status line while a
// backend-path grid runs.
func TestProgressReportsGrids(t *testing.T) {
	code, _, stderr := run(t, "experiments", "-exp", "d1", "-insts", "200000", "-progress", "5ms", "-j", "1")
	if code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "jobs done") {
		t.Errorf("-progress printed no status line; stderr:\n%s", stderr)
	}
}

// TestGuardFlagsReachLoadedSpecs: -paranoid and -timeout shape a spec read
// from a file exactly as they shape one built from flags — for cobra diff's
// spec operands, cobra sim -spec and cobra sweep -set alike.
func TestGuardFlagsReachLoadedSpecs(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "small.json")
	if err := os.WriteFile(small, []byte(mustRun(t, "sim", "-print-spec", "-workload", "fib", "-insts", "5000")), 0o644); err != nil {
		t.Fatal(err)
	}
	digest := func(args ...string) string {
		t.Helper()
		code, _, stderr := run(t, args...)
		if code != 0 {
			t.Fatalf("cobra %s: exit %d, stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
		for _, line := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(line, "digest=") {
				return line
			}
		}
		t.Fatalf("cobra %s printed no digest:\n%s", strings.Join(args, " "), stderr)
		return ""
	}
	if plain, paranoid := digest("diff", "-print-digest", small, small),
		digest("diff", "-paranoid", "-print-digest", small, small); plain == paranoid {
		t.Errorf("cobra diff -paranoid ran the same spec as without it (%s)", plain)
	}

	set := filepath.Join(dir, "set.json")
	if err := os.WriteFile(set, []byte(mustRun(t, "sweep", "-print-set", "-workload", "fib", "-insts", "5000")), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := mustRun(t, "sweep", "-set", set, "-paranoid", "-print-set"); !strings.Contains(out, `"paranoid": true`) {
		t.Errorf("cobra sweep -set -paranoid printed a set without paranoid:\n%s", out)
	}

	// About 3 s of simulation without the budget.
	big := filepath.Join(dir, "big.json")
	if err := os.WriteFile(big, []byte(mustRun(t, "sim", "-print-spec", "-workload", "gcc", "-insts", "2000000")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := run(t, "sim", "-spec", big, "-timeout", "50ms")
	if code != 1 || !strings.Contains(stderr, context.DeadlineExceeded.Error()) {
		t.Errorf("cobra sim -spec -timeout 50ms: exit %d, want 1 with a deadline-exceeded error; stderr:\n%s", code, stderr)
	}
}

// TestDiffDigestOperands: a sha256: operand is the finished run's
// intervals, read from the -server daemon's result — the same digest twice
// is no divergence; an unknown digest, or a run that recorded no
// intervals, is an error.
func TestDiffDigestOperands(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	cl, err := client.New(client.Config{BaseURL: ts.URL, Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	settle := func(every uint64) string {
		sp := &spec.RunSpec{Topology: "BIM2", Workload: "fib", Insts: 20_000}
		sp.Observe.IntervalInsts = every
		res, err := cl.Run(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest
	}
	withIntervals, without := settle(5000), settle(0)

	code, stdout, stderr := run(t, "diff", "-server", ts.URL, withIntervals, withIntervals)
	if code != 0 || !strings.Contains(stdout, "no divergence: ") {
		t.Errorf("diff of one digest with itself: exit %d\n%s%s", code, stdout, stderr)
	}
	for _, operand := range []string{"sha256:" + strings.Repeat("0", 64), without} {
		if code, _, stderr := run(t, "diff", "-server", ts.URL, withIntervals, operand); code != 1 {
			t.Errorf("diff against %s: exit %d, want 1\n%s", operand, code, stderr)
		}
	}
}
