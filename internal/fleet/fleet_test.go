package fleet

import (
	"bytes"
	"context"
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

// TestCacheCorruptionHeals: a damaged cache entry is a miss, not an error,
// and never replays its damaged output.  The torn entry is not even JSON;
// the bit-flipped one is still valid JSON with the right digest field, so
// only the entry's seal can catch it.
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
			out := bytes.Index(entry, []byte(`"output":"`))
			if out < 0 {
				t.Fatalf("no output field in entry:\n%s", entry)
			}
			i := out + bytes.IndexAny(entry[out:], "123456789")
			entry[i] ^= 0x01 // one digit becomes its neighbour: still valid JSON
			return entry
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := t.TempDir()
			res := runFixture(t, sub, cache, nil)
			entry := cachePath(cache, res.Services["baseline"].Digest)
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
// sealed <hex>.bundle marker holding only its name and digest, a hit
// re-assembles the output from its dependencies, and neither a damaged
// marker nor a stale <hex>.json entry for a bundle is ever replayed.
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

	jsons, _ := filepath.Glob(filepath.Join(cache, "*.json"))
	markers, _ := filepath.Glob(filepath.Join(cache, "*.bundle"))
	if len(jsons) != 6 || len(markers) != 2 {
		t.Fatalf("cold cache holds %d .json entries and %d markers, want 6 and 2", len(jsons), len(markers))
	}
	for _, name := range []string{"tables", "paper"} {
		d := cold.Services[name].Digest
		data, err := os.ReadFile(markerPath(cache, d))
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
		if _, err := os.Stat(cachePath(cache, d)); err == nil {
			t.Errorf("bundle %s has a .json entry", name)
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
	tables := markerPath(cache, cold.Services["tables"].Digest)
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
	if err := cacheStore(cache, paper, cacheEntry{Service: "paper", Digest: paper, Output: "stale\n"}); err != nil {
		t.Fatal(err)
	}
	res = runFixture(t, loadFixture(t), cache, nil)
	if res.Executed != 0 || res.Services["paper"].Output != want["paper"] {
		t.Errorf("stale entry beside the marker: executed=%d, paper output %q", res.Executed, res.Services["paper"].Output)
	}
	if err := os.Remove(markerPath(cache, paper)); err != nil {
		t.Fatal(err)
	}
	res = runFixture(t, loadFixture(t), cache, nil)
	if res.Executed != 1 || res.Services["paper"].Output != want["paper"] {
		t.Errorf("stale entry, no marker: executed=%d, paper output %q", res.Executed, res.Services["paper"].Output)
	}
	if _, err := os.Stat(markerPath(cache, paper)); err != nil {
		t.Errorf("re-executed bundle wrote no marker: %v", err)
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
