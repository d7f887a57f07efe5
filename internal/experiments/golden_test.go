package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files")

// golden compares got against testdata/golden/<name>, or rewrites the file
// when -update is set.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/experiments -run TestGolden -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden output\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// The static tables render from configuration alone — any drift is a real
// behaviour change, not simulation noise.
func TestGoldenTableI(t *testing.T)   { golden(t, "table1.txt", TableI().String()) }
func TestGoldenTableII(t *testing.T)  { golden(t, "table2.txt", TableII().String()) }
func TestGoldenTableIII(t *testing.T) { golden(t, "table3.txt", TableIII().String()) }

// TestGoldenFig10 pins a small-config Fig. 10 run.  The golden file encodes
// both the simulator's numeric behaviour and the determinism contract: the
// same bytes must come back for any Parallelism (the equivalence test covers
// that axis explicitly).
func TestGoldenFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("50 simulations")
	}
	_, table := Fig10(Config{Insts: 15_000, Seed: 42, Parallelism: 2})
	golden(t, "fig10_small.txt", table.String())
}

// TestGoldenFig10Paranoid reruns the pinned Fig. 10 configuration with the
// invariant checker armed and compares against the SAME golden file: paranoid
// mode is observation-only, so the bytes must not move.
func TestGoldenFig10Paranoid(t *testing.T) {
	if testing.Short() {
		t.Skip("50 simulations")
	}
	_, table := Fig10(Config{Insts: 15_000, Seed: 42, Parallelism: 2, Paranoid: true})
	golden(t, "fig10_small.txt", table.String())
}

// The small-config pins below cover the experiments that read more than a
// grid's counters: per-geometry programs (ablation-width), a trace capture
// sharing the batch seed (tracegap), pipeline energy accounting (energy),
// and attribution profiles (h2p).
func smallGolden(t *testing.T, name string, render func(Config) string) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation grid")
	}
	golden(t, name, render(Config{Insts: 15_000, Seed: 42, Parallelism: 2}))
}

func TestGoldenAblationWidth(t *testing.T) {
	smallGolden(t, "ablation_width_small.txt", func(c Config) string { return AblationWidth(c).String() })
}

func TestGoldenTraceGap(t *testing.T) {
	smallGolden(t, "tracegap_small.txt", func(c Config) string { return TraceGap(c).String() })
}

func TestGoldenEnergy(t *testing.T) {
	smallGolden(t, "energy_small.txt", func(c Config) string { return Energy(c).String() })
}

func TestGoldenH2P(t *testing.T) {
	smallGolden(t, "h2p_small.txt", func(c Config) string { return H2P(c).String() })
}
