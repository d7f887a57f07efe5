package uarch

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cobra/internal/compose"
	"cobra/internal/sram"
	"cobra/internal/trace"
	"cobra/internal/workloads"
)

// portDesigns mirror the three Table I presets of spec.Preset (spec
// imports this package, so the topologies are restated here).
var portDesigns = []struct {
	name string
	topo string
	opt  compose.Options
}{
	{"tourney", "TOURNEY3 > [GBIM2 > BTB2, LBIM2]", compose.Options{GHistBits: 32, LocalEntries: 256, LocalHistBits: 32}},
	{"b2", "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16}},
	{"tage-l", "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", compose.Options{GHistBits: 64}},
}

// portLines renders the port counters of every memory of p: each
// component's Mems() in topological order, then the local-history table.
func portLines(design, mode string, p *compose.Pipeline) []string {
	var lines []string
	add := func(owner string, mems []*sram.Mem) {
		for i, m := range mems {
			lines = append(lines, fmt.Sprintf("%s %s %s#%d %s reads=%d writes=%d maxr=%d maxw=%d",
				design, mode, owner, i, m.Spec().Name, m.TotalReads, m.TotalWrites,
				m.MaxReadsPerCycle, m.MaxWritesPerCycle))
		}
	}
	for _, c := range p.Components() {
		if mp, ok := c.(interface{ Mems() []*sram.Mem }); ok {
			add(c.Name(), mp.Mems())
		}
	}
	if p.Local != nil {
		add("local", p.Local.Mems())
	}
	return lines
}

// TestPortPressurePins runs each preset through a short trace replay and a
// short core run on the gcc proxy and requires every memory's access totals
// and worst per-cycle port use to match testdata/port_pins.txt byte for
// byte.  Regenerate (only for a deliberate behaviour change) with:
// go test ./internal/uarch -run TestPortPressurePins -update
func TestPortPressurePins(t *testing.T) {
	prog, err := workloads.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	if _, err := trace.Capture(&tr, prog, 42, 20000); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, d := range portDesigns {
		bp := mkPipeline(t, d.topo, d.opt)
		r, err := trace.NewReader(bytes.NewReader(tr.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.Simulate(bp, r); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, portLines(d.name, "trace", bp)...)

		bp = mkPipeline(t, d.topo, d.opt)
		NewCore(DefaultConfig(), bp, prog, 42).Run(20000)
		lines = append(lines, portLines(d.name, "core", bp)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "port_pins.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/uarch -run TestPortPressurePins -update)", err)
	}
	if got != string(want) {
		t.Errorf("port pressure drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
