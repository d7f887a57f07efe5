package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cobra/internal/backend"
	"cobra/internal/client"
	"cobra/internal/sealed"
	"cobra/internal/serve"
	"cobra/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files")

func loadFixture(t *testing.T) *File {
	t.Helper()
	f, err := Load(filepath.Join("testdata", "fleet_paper_small.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseCommittedFleets(t *testing.T) {
	for _, path := range []string{"../../fleets/paper.yaml", "../../fleets/paper-small.yaml"} {
		f, err := Load(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := f.Stages(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if _, err := f.Digests(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if sinks := f.Sinks(); len(sinks) == 0 {
			t.Errorf("%s: no sink services", path)
		}
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, doc, wantErr string
	}{
		{"no-services", "version: 1", "no services"},
		{"two-kinds", `
services:
  both:
    experiment:
      id: table1
    bundle: [x]
`, "exactly one of"},
		{"no-kind", `
services:
  hollow:
    depends_on: [hollow2]
`, "exactly one of"},
		{"unknown-exp", `
services:
  bad:
    experiment:
      id: table99
`, "unknown experiment"},
		{"unknown-dep", `
services:
  a:
    experiment:
      id: table1
    depends_on: [ghost]
`, "unknown service"},
		{"self-dep", `
services:
  a:
    experiment:
      id: table1
    depends_on: [a]
`, "depends on itself"},
		{"bad-version", `
version: 9
services:
  a:
    experiment:
      id: table1
`, "unsupported version"},
		{"unknown-key", `
servicez:
  a: 1
`, "unknown field"},
		{"bad-spec", `
services:
  a:
    run:
      topology: BIM2
      workload: no-such-workload
`, "no-such-workload"},
		{"empty-bundle", `
services:
  a:
    bundle: []
`, "exactly one of"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Parse error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestCycleDetected(t *testing.T) {
	f, err := Parse([]byte(`
services:
  a:
    experiment:
      id: table1
    depends_on: [b]
  b:
    experiment:
      id: table2
    depends_on: [a]
`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Stages(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Stages error = %v, want cycle", err)
	}
}

// TestStagesDeterministic pins the fixture's exact schedule: the stage
// partition is a pure function of the file, sorted within each stage.
func TestStagesDeterministic(t *testing.T) {
	want := [][]string{
		{"baseline", "fig10", "sweep", "table1", "table2", "table3"},
		{"tables"},
		{"paper"},
	}
	for i := 0; i < 3; i++ {
		stages, err := loadFixture(t).Stages()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stages, want) {
			t.Fatalf("stages = %v, want %v", stages, want)
		}
	}
}

func TestJSONFleetParses(t *testing.T) {
	f, err := Parse([]byte(`{"services": {"t1": {"experiment": {"id": "table1"}}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if f.Services["t1"].Experiment.ID != "table1" {
		t.Errorf("JSON fleet did not decode")
	}
}

// TestDigestsMerkle: editing one service re-keys exactly that service and
// its downstream cone; digests are stable across loads otherwise.
func TestDigestsMerkle(t *testing.T) {
	base, err := loadFixture(t).Digests()
	if err != nil {
		t.Fatal(err)
	}
	again, err := loadFixture(t).Digests()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, again) {
		t.Fatalf("digests not stable across loads:\n%v\n%v", base, again)
	}

	edited := loadFixture(t)
	edited.Services["baseline"].Run.Insts = 12_345
	ed, err := edited.Digests()
	if err != nil {
		t.Fatal(err)
	}
	wantChanged := map[string]bool{"baseline": true, "paper": true}
	for name, d := range base {
		if changed := ed[name] != d; changed != wantChanged[name] {
			t.Errorf("service %s: digest changed=%v, want %v", name, changed, wantChanged[name])
		}
	}
}

func TestRestrictCone(t *testing.T) {
	sub, err := loadFixture(t).Restrict([]string{"tables"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "table2", "table3", "tables"}
	if got := sub.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("Restrict(tables) = %v, want %v", got, want)
	}
	if _, err := sub.Restrict([]string{"ghost"}); err == nil {
		t.Error("Restrict(ghost) did not fail")
	}
}

func TestSinks(t *testing.T) {
	if got := loadFixture(t).Sinks(); !reflect.DeepEqual(got, []string{"paper"}) {
		t.Errorf("Sinks = %v, want [paper]", got)
	}
}

// run executes the fixture fleet against cache.
func runFixture(t *testing.T, f *File, cache string, be backend.Backend) *Result {
	t.Helper()
	res, err := f.Run(context.Background(), Options{
		Backend: be, CacheDir: cache, Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunFleet is the tentpole end-to-end: execute the fixture, prove the
// experiment services render the exact golden bytes the direct experiments
// tests pin, prove a re-run skips everything, and prove an edit re-runs
// exactly its cone.
func TestRunFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small fleet's simulations")
	}
	cache := t.TempDir()
	f := loadFixture(t)
	res := runFixture(t, f, cache, nil)
	if res.Executed != 8 || res.Skipped != 0 {
		t.Fatalf("first run executed=%d skipped=%d, want 8/0", res.Executed, res.Skipped)
	}

	// Byte-identity against the experiments package's own goldens: the fleet
	// path must render the same artifact bytes as a direct render.
	for svc, g := range map[string]string{
		"table1": "table1.txt", "table2": "table2.txt",
		"table3": "table3.txt", "fig10": "fig10_small.txt",
	} {
		want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", g))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Services[svc].Output; got != string(want) {
			t.Errorf("service %s drifted from experiments golden %s\n--- got ---\n%s", svc, g, got)
		}
	}

	// The paper bundle is the fleet's rendered report; pin it.
	report := res.Services["paper"].Output
	goldenPath := filepath.Join("testdata", "golden", "paper_small_report.txt")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with: go test ./internal/fleet -run TestRunFleet -update)", err)
		}
		if report != string(want) {
			t.Errorf("paper report drifted from golden\n--- got ---\n%s--- want ---\n%s", report, want)
		}
	}

	// Unchanged fleet: everything replays from cache, bytes identical.
	res2 := runFixture(t, loadFixture(t), cache, nil)
	if res2.Executed != 0 || res2.Skipped != 8 {
		t.Fatalf("re-run executed=%d skipped=%d, want 0/8", res2.Executed, res2.Skipped)
	}
	for name, sr := range res.Services {
		if got := res2.Services[name].Output; got != sr.Output {
			t.Errorf("service %s: cached output differs from executed output", name)
		}
	}

	// One edit re-runs exactly its downstream cone: baseline and the paper
	// bundle, nothing else.
	edited := loadFixture(t)
	edited.Services["baseline"].Run.Insts = 12_345
	res3 := runFixture(t, edited, cache, nil)
	if res3.Executed != 2 || res3.Skipped != 6 {
		t.Fatalf("cone re-run executed=%d skipped=%d, want 2/6", res3.Executed, res3.Skipped)
	}
	for _, name := range []string{"baseline", "paper"} {
		if res3.Services[name].Cached {
			t.Errorf("service %s should have re-executed", name)
		}
	}
	for _, name := range []string{"fig10", "sweep", "table1", "table2", "table3", "tables"} {
		if !res3.Services[name].Cached {
			t.Errorf("service %s should have been skipped", name)
		}
	}

	// Bundle format: one headed section per bundled service.
	for _, h := range []string{"## tables", "## fig10", "## baseline", "## sweep"} {
		if !strings.Contains(report, h+"\n") {
			t.Errorf("paper report missing section %q", h)
		}
	}
}

// TestRunFleetRemote: the same fleet through a live cobra-serve daemon
// produces byte-identical service outputs — the compose analogue of the
// experiments remote-equivalence test.
func TestRunFleetRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations twice")
	}
	srv, err := serve.New(serve.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	be, err := backend.NewRemote(client.Config{BaseURL: ts.URL, Poll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	// The run/sweep cone exercises every spec-shaped service kind without
	// paying for the fig10 grid twice.
	sub, err := loadFixture(t).Restrict([]string{"baseline", "sweep"})
	if err != nil {
		t.Fatal(err)
	}
	local := runFixture(t, sub, "", nil)
	remote := runFixture(t, sub, "", be)
	for name, sr := range local.Services {
		if got := remote.Services[name].Output; got != sr.Output {
			t.Errorf("service %s: remote output differs from local\n--- local ---\n%s--- remote ---\n%s",
				name, sr.Output, got)
		}
	}
}

// TestCacheCorruptionHeals: a damaged cache record is a miss, not an error,
// and never replays its damaged output.  The torn record has no header; the
// bit-flipped one still has the right header and differs in one output
// digit, so only the record's seal can catch it.
func TestCacheCorruptionHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sub, err := loadFixture(t).Restrict([]string{"baseline"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(t *testing.T, entry []byte) []byte
	}{
		{"torn", func(*testing.T, []byte) []byte { return []byte("{torn") }},
		{"bit-flip", func(t *testing.T, entry []byte) []byte {
			out := bytes.IndexByte(entry, '\n') + 1
			i := out + bytes.IndexAny(entry[out:], "123456789")
			if out == 0 || i < out {
				t.Fatalf("no header line or no digit in record:\n%s", entry)
			}
			entry[i] ^= 0x01 // one output digit becomes its neighbour
			return entry
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := t.TempDir()
			res := runFixture(t, sub, cache, nil)
			entry := recordPath(cache, res.Services["baseline"].Digest, false)
			data, err := os.ReadFile(entry)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(entry, tc.corrupt(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			res2 := runFixture(t, sub, cache, nil)
			if res2.Executed != 1 {
				t.Fatalf("corrupted entry was not re-executed (executed=%d)", res2.Executed)
			}
			if res2.Services["baseline"].Output != res.Services["baseline"].Output {
				t.Error("healed output differs")
			}
			if _, err := os.Stat(entry + ".corrupt"); err != nil {
				t.Errorf("corrupted entry not quarantined: %v", err)
			}
		})
	}
}

// TestBundleMarkers: a bundle's output is never cached.  Its record is a
// sealed <hex>.bundle marker holding only its name and digest (the bytes
// markers have always had), a hit re-assembles the output from its
// dependencies, and neither a damaged marker nor a stale <hex>.json entry
// for a bundle is ever replayed.
func TestBundleMarkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the small fleet's simulations")
	}
	cache := t.TempDir()
	cold := runFixture(t, loadFixture(t), cache, nil)
	outputs := func(res *Result) map[string]string {
		m := map[string]string{}
		for name, sr := range res.Services {
			m[name] = sr.Output
		}
		return m
	}
	want := outputs(cold)

	records, _ := filepath.Glob(filepath.Join(cache, "*.out"))
	markers, _ := filepath.Glob(filepath.Join(cache, "*.bundle"))
	if len(records) != 6 || len(markers) != 2 {
		t.Fatalf("cold cache holds %d .out records and %d markers, want 6 and 2", len(records), len(markers))
	}
	for _, name := range []string{"tables", "paper"} {
		d := cold.Services[name].Digest
		data, err := os.ReadFile(recordPath(cache, d, true))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := sealed.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(payload), "service="+name+" digest="+d+"\n"; got != want {
			t.Errorf("%s marker holds %q, want %q", name, got, want)
		}
		if _, err := os.Stat(recordPath(cache, d, false)); err == nil {
			t.Errorf("bundle %s has a .out record", name)
		}
	}

	var log bytes.Buffer
	res, err := loadFixture(t).Run(context.Background(), Options{CacheDir: cache, Parallelism: 4, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(log.String(), " action=skipped "); n != 8 || res.Executed != 0 {
		t.Errorf("cached replay: %d skipped lines, executed=%d, want 8 and 0\n%s", n, res.Executed, log.String())
	}
	if !reflect.DeepEqual(outputs(res), want) {
		t.Error("cached replay outputs differ from the cold run")
	}

	// A flipped byte in a marker: quarantined, and its bundle re-executed
	// once with identical output.
	tables := recordPath(cache, cold.Services["tables"].Digest, true)
	data, err := os.ReadFile(tables)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0x01
	if err := os.WriteFile(tables, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res = runFixture(t, loadFixture(t), cache, nil)
	if res.Executed != 1 || res.Services["tables"].Cached || !res.Services["paper"].Cached {
		t.Errorf("corrupt tables marker: executed=%d, want only tables executed", res.Executed)
	}
	if _, err := os.Stat(tables + ".corrupt"); err != nil {
		t.Errorf("corrupt marker not quarantined: %v", err)
	}
	if !reflect.DeepEqual(outputs(res), want) {
		t.Error("outputs after a corrupt marker differ from the cold run")
	}

	// A sealed <hex>.json for paper with the right digest and a wrong output,
	// as an older binary could have left: never read, with or without the
	// marker.
	paper := cold.Services["paper"].Digest
	writeJSONEntry(t, cache, "paper", paper)
	res = runFixture(t, loadFixture(t), cache, nil)
	if res.Executed != 0 || res.Services["paper"].Output != want["paper"] {
		t.Errorf("stale entry beside the marker: executed=%d, paper output %q", res.Executed, res.Services["paper"].Output)
	}
	if err := os.Remove(recordPath(cache, paper, true)); err != nil {
		t.Fatal(err)
	}
	res = runFixture(t, loadFixture(t), cache, nil)
	if res.Executed != 1 || res.Services["paper"].Output != want["paper"] {
		t.Errorf("stale entry, no marker: executed=%d, paper output %q", res.Executed, res.Services["paper"].Output)
	}
	if _, err := os.Stat(recordPath(cache, paper, true)); err != nil {
		t.Errorf("re-executed bundle wrote no marker: %v", err)
	}
}

// writeJSONEntry leaves in dir the sealed <hex>.json entry an older binary
// wrote for service, with the right digest and the output "stale".
func writeJSONEntry(t *testing.T, dir, service, digest string) {
	t.Helper()
	doc, err := json.Marshal(map[string]string{"service": service, "digest": digest, "output": "stale"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, strings.TrimPrefix(digest, "sha256:")+".json")
	if err := sealed.Publish(path, sealed.Seal(doc)); err != nil {
		t.Fatal(err)
	}
}

// parseServices parses a fleet of the given services, where RUN stands for
// one short simulation.
func parseServices(t *testing.T, services string) *File {
	t.Helper()
	run := `{"run": {"design": "b2", "workload": "fib", "insts": 2000, "seed": 1}}`
	f, err := Parse([]byte(`{"services": {` + strings.ReplaceAll(services, "RUN", run) + `}}`))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestIdenticalServicesShareRecords: services with the same content share a
// digest and so one record, whose name is only informational.  After the
// cold run neither of two identical runs nor of two identical bundles
// executes again, and each replays its own name.
func TestIdenticalServicesShareRecords(t *testing.T) {
	const twins = `"x": RUN, "y": RUN, "a": {"bundle": ["x"]}, "b": {"bundle": ["x"]}`
	cache := t.TempDir()
	// How many services the cold run executes depends on whether a twin's
	// record is written before the other twin is looked up.
	cold := runFixture(t, parseServices(t, twins), cache, nil)
	if cold.Services["x"].Digest != cold.Services["y"].Digest || cold.Services["a"].Digest != cold.Services["b"].Digest {
		t.Fatal("identical services have different digests")
	}
	for run := 2; run <= 3; run++ {
		res := runFixture(t, parseServices(t, twins), cache, nil)
		if res.Executed != 0 {
			t.Errorf("run %d executed %d services, want 0", run, res.Executed)
		}
		for name, sr := range res.Services {
			if sr.Name != name || sr.Output != cold.Services[name].Output {
				t.Errorf("run %d: service %s replayed as %q with output %q", run, name, sr.Name, sr.Output)
			}
		}
	}
}

// TestUpgradeFromJSONEntries: a cache holding only the <hex>.json entries of
// an older binary, with the right digests, is never replayed.  The first run
// executes every service once and the second executes none.
func TestUpgradeFromJSONEntries(t *testing.T) {
	const services = `"x": RUN, "a": {"bundle": ["x"]}`
	digests, err := parseServices(t, services).Digests()
	if err != nil {
		t.Fatal(err)
	}
	cache := t.TempDir()
	for name, d := range digests {
		writeJSONEntry(t, cache, name, d)
	}
	res := runFixture(t, parseServices(t, services), cache, nil)
	for name, sr := range res.Services {
		if sr.Cached || strings.Contains(sr.Output, "stale") {
			t.Errorf("service %s replayed an old entry: cached=%v output %q", name, sr.Cached, sr.Output)
		}
	}
	if res.Executed != 2 {
		t.Errorf("first run executed %d services, want 2", res.Executed)
	}
	if res = runFixture(t, parseServices(t, services), cache, nil); res.Executed != 0 {
		t.Errorf("second run executed %d services, want 0", res.Executed)
	}
}

// failingBackend refuses every run.
type failingBackend struct{}

func (failingBackend) Name() string { return "failing" }
func (failingBackend) Run(context.Context, *spec.RunSpec) (*spec.Outcome, error) {
	return nil, errors.New("backend unavailable")
}

// TestExperimentFailureFailsService: a grid failure inside an `experiment:`
// service fails that service with an error instead of panicking the
// executor's goroutine (which would kill the whole process).
func TestExperimentFailureFailsService(t *testing.T) {
	f, err := Parse([]byte(`{"services": {"d1": {"experiment": {"id": "d1", "insts": 1000}}}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Run(context.Background(), Options{Backend: failingBackend{}})
	if err == nil || !strings.Contains(err.Error(), `service "d1"`) || !strings.Contains(err.Error(), "backend unavailable") {
		t.Fatalf("want the d1 service to fail with the backend error, got %v", err)
	}
}
