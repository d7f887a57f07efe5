package experiments

import (
	"fmt"
	"strings"
	"testing"

	"cobra/internal/pred"
	"cobra/internal/runner"
	"cobra/internal/spec"
	"cobra/internal/uarch"
)

func tiny() Config { return Config{Insts: 40000, Seed: 7} }

func TestTables(t *testing.T) {
	t1 := TableI()
	if !strings.Contains(t1.String(), "tage-l") || !strings.Contains(t1.String(), "KB") {
		t.Errorf("Table I malformed:\n%s", t1)
	}
	t2 := TableII()
	if !strings.Contains(t2.String(), "128-entry ROB") {
		t.Errorf("Table II malformed:\n%s", t2)
	}
	t3 := TableIII()
	if len(t3.Rows) != 5 {
		t.Errorf("Table III rows = %d", len(t3.Rows))
	}
}

func TestFigs8And9(t *testing.T) {
	f8 := Fig8()
	for _, want := range []string{"TAGE3", "meta", "UBTB1"} {
		if !strings.Contains(f8, want) {
			t.Errorf("Fig8 missing %q", want)
		}
	}
	f9 := Fig9()
	for _, want := range []string{"branch-pred", "issue-units", "dcache"} {
		if !strings.Contains(f9, want) {
			t.Errorf("Fig9 missing %q", want)
		}
	}
}

func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("50 simulations")
	}
	rows, table := Fig10(Config{Insts: 15000, Seed: 7})
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, sys := range Fig10Systems {
			if r.IPC[sys] <= 0 {
				t.Errorf("%s/%s: zero IPC", r.Workload, sys)
			}
		}
	}
	if !strings.Contains(table.String(), "HARMEAN") {
		t.Error("missing HARMEAN summary")
	}
}

func TestDiscussionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations each")
	}
	d1 := SerializedFetch(tiny())
	if len(d1.Rows) != 2 {
		t.Errorf("D1 rows = %d", len(d1.Rows))
	}
	d4 := SFB(tiny())
	if len(d4.Rows) != 2 {
		t.Errorf("D4 rows = %d", len(d4.Rows))
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations each")
	}
	if len(AblationLoop(tiny()).Rows) == 0 {
		t.Error("loop ablation empty")
	}
	if len(AblationUBTB(tiny()).Rows) == 0 {
		t.Error("uBTB ablation empty")
	}
	am := AblationMetadata()
	if len(am.Rows) != 3 {
		t.Error("metadata ablation rows")
	}
	// The extra read port must cost area in every design.
	for _, r := range am.Rows {
		if !strings.Contains(r[3], "+") {
			t.Errorf("metadata ablation shows no overhead: %v", r)
		}
	}
}

func TestTraceGapSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("captures + simulations")
	}
	tg := TraceGap(Config{Insts: 30000, Seed: 7})
	if len(tg.Rows) != 6 {
		t.Errorf("trace gap rows = %d", len(tg.Rows))
	}
}

// TestWideFetchSpecMatchesAblationCell: a hand-written spec on an 8x2-byte
// frontend runs gcc laid out for 2-byte instructions and reproduces
// AblationWidth's 8-wide gcc cell.
func TestWideFetchSpecMatchesAblationCell(t *testing.T) {
	if testing.Short() {
		t.Skip("several simulations")
	}
	cfg := Config{Insts: 15_000, Seed: 42}
	core := uarch.DefaultConfig()
	core.Fetch = pred.Config{FetchWidth: 8, InstBytes: 2}
	s, err := spec.Preset("tage-l")
	if err != nil {
		t.Fatal(err)
	}
	s.Workload, s.Insts, s.Core = "gcc", cfg.Insts, &core
	s.Seed = runner.Derive(cfg.Seed, 1) // gcc's 8-wide cell is grid point 1
	out, err := spec.Exec(s, spec.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	row := AblationWidth(cfg).Rows[0] // workload, IPC 4, IPC 8, delta, MPKI 4, MPKI 8
	if got := fmt.Sprintf("%.3f", out.Stats.IPC()); got != row[2] {
		t.Errorf("IPC %s, ablation cell %s", got, row[2])
	}
	if got := fmt.Sprintf("%.2f", out.Stats.MPKI()); got != row[5] {
		t.Errorf("MPKI %s, ablation cell %s", got, row[5])
	}
}
