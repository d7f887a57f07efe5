package spec

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cobra/internal/pred"
	"cobra/internal/uarch"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures in testdata/")

// fixtureSpec exercises every serializable field class: explicit pipeline
// geometry, a pinned workload, budgets, host toggles, a fault plan with
// deliberately unsorted/duplicated kinds, and observer config.
func fixtureSpec() *RunSpec {
	return &RunSpec{
		Design:   "b2",
		Topology: "GTAG3 > BTB2 > BIM2",
		Pipeline: Pipeline{GHistBits: 16, GHRPolicy: "replay"},
		Workload: "fib",
		Seed:     7,
		Insts:    60_000,
		Warmup:   1_000,
		Host:     "inorder",
		Paranoid: true,
		Faults: &FaultPlan{
			Seed:       3,
			Period:     10_000,
			Kinds:      []string{"drop-update", "corrupt-meta", "drop-update"},
			Components: []string{"btb2", "GTAG3"},
		},
		Observe: Observe{Events: true, EventsBuf: 1024, Attribution: true},
	}
}

// TestGoldenFixture freezes the v1 canonical form: the committed JSON and
// digest must be reproduced exactly.  If this fails because you changed the
// RunSpec schema (field added, renamed, reordered, retyped) or the meaning of
// canonicalization, bump Version and regenerate with -update; silently
// reshaping the schema would let stale cached results collide with new specs.
func TestGoldenFixture(t *testing.T) {
	s, err := fixtureSpec().Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	digest, err := s.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}
	jsonPath := filepath.Join("testdata", "runspec_v1.json")
	digestPath := filepath.Join("testdata", "runspec_v1.digest")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (digest %s)", jsonPath, digest)
		return
	}
	want, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("canonical JSON drifted from the committed v%d fixture.\n"+
			"If the schema changed, bump spec.Version and regenerate with -update.\ngot:\n%s\nwant:\n%s",
			Version, got, want)
	}
	wantDigest, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	if digest != string(bytes.TrimSpace(wantDigest)) {
		t.Errorf("digest drifted: got %s want %s", digest, bytes.TrimSpace(wantDigest))
	}
}

// TestGoldenRoundTrip: fixture JSON → Parse → Canonicalize → identical JSON
// and digest (parsing loses nothing; canonicalization is idempotent).
func TestGoldenRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "runspec_v1.json"))
	if err != nil {
		t.Skipf("no fixture yet: %v", err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := s.Canonicalize(); err != nil {
		t.Fatalf("Canonicalize: %v", err)
	}
	got, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if !bytes.Equal(got, data) {
		t.Errorf("round trip not identical:\ngot:\n%s\nwant:\n%s", got, data)
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	s := fixtureSpec()
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	d1, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	d2, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Errorf("second canonicalization moved the digest: %s -> %s", d1, d2)
	}
}

// TestDefaultsDigestEqual: leaving defaults implicit and spelling them out
// must address the same cache entry.
func TestDefaultsDigestEqual(t *testing.T) {
	implicit := &RunSpec{Topology: "BIM2", Workload: "fib"}
	explicit := &RunSpec{
		Version:  Version,
		Topology: "BIM2",
		Pipeline: Pipeline{GHistBits: 64, LocalEntries: 256, LocalHistBits: 32,
			PathBits: 16, HFEntries: 32, GHRPolicy: "repair"},
		Workload: "fib",
		Seed:     DefaultSeed,
		Insts:    DefaultInsts,
		Host:     "boom",
	}
	d1, err := implicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := explicit.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	dig1, _ := d1.Digest()
	dig2, _ := d2.Digest()
	if dig1 != dig2 {
		t.Errorf("implicit and explicit defaults digest differently:\n%s\n%s", dig1, dig2)
	}
}

func TestFaultPlanNormalization(t *testing.T) {
	s := fixtureSpec()
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if got := s.Faults.Kinds; len(got) != 2 || got[0] > got[1] {
		t.Errorf("fault kinds not sorted/deduplicated: %v", got)
	}
	for i, c := range s.Faults.Components {
		if c != "BTB2" && c != "GTAG3" {
			t.Errorf("component %d not normalized: %q", i, c)
		}
	}
	// An inert plan (period 0) canonicalizes away entirely.
	inert := &RunSpec{Topology: "BIM2", Workload: "fib", Faults: &FaultPlan{Seed: 9}}
	if err := inert.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if inert.Faults != nil {
		t.Errorf("inert fault plan survived canonicalization: %+v", inert.Faults)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"topology":"BIM2","workload":"fib","wrokload":"typo"}`)); err == nil {
		t.Error("Parse accepted an unknown field")
	}
}

func TestVersionGate(t *testing.T) {
	s := &RunSpec{Version: Version + 1, Topology: "BIM2", Workload: "fib"}
	if err := s.Canonicalize(); err == nil {
		t.Errorf("Canonicalize accepted schema version %d", Version+1)
	}
}

func TestWorkloadHashMismatchRejected(t *testing.T) {
	s := &RunSpec{Topology: "BIM2", Workload: "fib",
		WorkloadHash: "sha256:0000000000000000000000000000000000000000000000000000000000000000"}
	if err := s.Canonicalize(); err == nil {
		t.Error("Canonicalize accepted a stale workload hash")
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	s := &RunSpec{Topology: "BIM2", Workload: "no-such-workload"}
	if err := s.Canonicalize(); err == nil {
		t.Error("Canonicalize accepted an unknown workload")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := fixtureSpec()
	if err := s.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.Faults.Kinds[0] = "mutated"
	c.Pipeline.GHistBits = 1
	if s.Faults.Kinds[0] == "mutated" || s.Pipeline.GHistBits == 1 {
		t.Error("Clone shares state with the original")
	}
}

func TestPresetsCanonicalizeDistinctly(t *testing.T) {
	seen := map[string]string{}
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%q): %v", name, err)
		}
		p.Workload = "fib"
		if err := p.Canonicalize(); err != nil {
			t.Fatalf("Preset(%q) does not canonicalize: %v", name, err)
		}
		d, err := p.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("presets %q and %q share digest %s", prev, name, d)
		}
		seen[d] = name
	}
}

// TestDigestStableAcrossProcessShape guards the workload fingerprint against
// pointer-rendering regressions: hashing the same workload twice through
// fresh builds must agree (interpreted kernels rebuild per Get).
func TestFingerprintStable(t *testing.T) {
	a := &RunSpec{Topology: "BIM2", Workload: "fib"}
	b := &RunSpec{Topology: "BIM2", Workload: "fib"}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if ca.WorkloadHash != cb.WorkloadHash {
		t.Errorf("workload hash unstable: %s vs %s", ca.WorkloadHash, cb.WorkloadHash)
	}
}

// TestWorkloadFollowsFetchGeometry: the pinned workload hash is the program
// laid out for the host core's instruction width.  A SPECint proxy on an
// 8x2-byte frontend pins a different hash than at 4 bytes; a fixed-layout
// workload is rejected at 2 bytes instead of deadlocking the core.
func TestWorkloadFollowsFetchGeometry(t *testing.T) {
	wide := uarch.DefaultConfig()
	wide.Fetch = pred.Config{FetchWidth: 8, InstBytes: 2}
	narrow, err := (&RunSpec{Topology: "BIM2", Workload: "gcc"}).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	rvc, err := (&RunSpec{Topology: "BIM2", Workload: "gcc", Core: &wide}).Canonical()
	if err != nil {
		t.Fatalf("gcc at 2-byte instructions: %v", err)
	}
	if rvc.WorkloadHash == narrow.WorkloadHash {
		t.Error("2-byte and 4-byte layouts of gcc pin the same workload hash")
	}
	if err := (&RunSpec{Topology: "BIM2", Workload: "dhrystone", Core: &wide}).Canonicalize(); err == nil {
		t.Error("Canonicalize accepted dhrystone at 2-byte instructions")
	}
}

// TestCanonicalizeRejectsUnrunnableCore: a core override that would deadlock
// the watchdog or panic in NewCore is refused at canonicalization, before a
// worker ever runs it; odd but runnable sizes still canonicalize.
func TestCanonicalizeRejectsUnrunnableCore(t *testing.T) {
	cases := []struct {
		name string
		edit func(c *uarch.Config)
		ok   bool
	}{
		{"default", func(c *uarch.Config) {}, true},
		{"inorder", func(c *uarch.Config) { *c = uarch.InOrderConfig() }, true},
		{"rob 65", func(c *uarch.Config) { c.ROBEntries = 65 }, true},
		{"zero latency", func(c *uarch.Config) { c.ALULat = 0 }, true},
		{"rob 0", func(c *uarch.Config) { c.ROBEntries = 0 }, false},
		{"rob negative", func(c *uarch.Config) { c.ROBEntries = -4 }, false},
		{"decode 0", func(c *uarch.Config) { c.DecodeWidth = 0 }, false},
		{"commit 0", func(c *uarch.Config) { c.CommitWidth = 0 }, false},
		{"alu 0", func(c *uarch.Config) { c.NumALU = 0 }, false},
		{"mem 0", func(c *uarch.Config) { c.NumMem = 0 }, false},
		{"fp 0", func(c *uarch.Config) { c.NumFP = 0 }, false},
		{"iq 0", func(c *uarch.Config) { c.IQEntries = 0 }, false},
		{"ldq 0", func(c *uarch.Config) { c.LDQEntries = 0 }, false},
		{"stq 0", func(c *uarch.Config) { c.STQEntries = 0 }, false},
		{"ras 0", func(c *uarch.Config) { c.RASEntries = 0 }, false},
		{"fetch buffer below packet", func(c *uarch.Config) { c.FetchBufferCap = 3 }, false},
		{"fetch width 3", func(c *uarch.Config) { c.Fetch.FetchWidth = 3 }, false},
		{"negative latency", func(c *uarch.Config) { c.MemLat = -1 }, false},
		{"l1 sets 0", func(c *uarch.Config) { c.L1Sets = 0 }, false},
		{"l2 sets 48", func(c *uarch.Config) { c.L2Sets = 48 }, false},
		{"l1 ways 0", func(c *uarch.Config) { c.L1Ways = 0 }, false},
		{"line 24", func(c *uarch.Config) { c.LineBytes = 24 }, false},
		{"watchdog 0", func(c *uarch.Config) { c.WatchdogCycles = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			core := uarch.DefaultConfig()
			tc.edit(&core)
			err := (&RunSpec{Topology: "BIM2", Workload: "gcc", Core: &core}).Canonicalize()
			if tc.ok && err != nil {
				t.Fatalf("rejected a runnable core: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted a core that cannot run")
			}
		})
	}
}
