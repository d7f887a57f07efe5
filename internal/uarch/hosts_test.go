package uarch

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cobra/internal/compose"
	"cobra/internal/stats"
	"cobra/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/ golden files")

// pinHosts are the host configurations the experiment goldens never reach:
// every golden table runs DefaultConfig, so in-order issue, ROB sizes that
// are not a multiple of 64 (or exceed 64), a tiny issue queue, SFB and
// serialized fetch are pinned here instead.
var pinHosts = []struct {
	name string
	cfg  func() Config
}{
	{"inorder", InOrderConfig},
	{"boom-rob65", func() Config { c := DefaultConfig(); c.ROBEntries = 65; return c }},
	{"boom-rob100", func() Config { c := DefaultConfig(); c.ROBEntries = 100; return c }},
	{"boom-rob130", func() Config { c := DefaultConfig(); c.ROBEntries = 130; return c }},
	{"boom-iq4", func() Config { c := DefaultConfig(); c.IQEntries = 4; return c }},
	{"boom-sfb", func() Config { c := DefaultConfig(); c.SFB = true; return c }},
	{"boom-serial", func() Config { c := DefaultConfig(); c.SerializedFetch = true; return c }},
}

var pinDesigns = []struct {
	name string
	topo string
	opt  compose.Options
}{
	{"b2", "GTAG3 > BTB2 > BIM2", compose.Options{GHistBits: 16}},
	{"tage-l", "LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1", compose.Options{GHistBits: 64}},
}

// counterLine renders the exact counters of one run: any change to issue
// order, wakeup timing or flush behaviour moves at least the cycle count.
func counterLine(host, design string, s *stats.Sim) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s cycles=%d insts=%d branches=%d misp=%d dir=%d tgt=%d bubbles=%d",
		host, design, s.Cycles, s.Instructions, s.Branches, s.Mispredicts,
		s.DirMispredicts, s.TgtMispredicts, s.FetchBubbles)
	for _, k := range stats.SortedKeys(s.ProviderHits) {
		fmt.Fprintf(&b, " hit.%s=%d", k, s.ProviderHits[k])
	}
	for _, k := range stats.SortedKeys(s.ProviderMisses) {
		fmt.Fprintf(&b, " miss.%s=%d", k, s.ProviderMisses[k])
	}
	return b.String()
}

// TestHostCounterPins runs {non-default hosts} x {b2, tage-l} on the
// mispredict-heavy mcf proxy and requires the counters to match
// testdata/host_pins.txt byte for byte.  Regenerate (only for a deliberate
// behaviour change) with: go test ./internal/uarch -run TestHostCounterPins -update
func TestHostCounterPins(t *testing.T) {
	prog, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, h := range pinHosts {
		for _, d := range pinDesigns {
			bp := mkPipeline(t, d.topo, d.opt)
			s := NewCore(h.cfg(), bp, prog, 42).Run(30000)
			lines = append(lines, counterLine(h.name, d.name, s))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "host_pins.txt")
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
		t.Fatalf("%v (regenerate with: go test ./internal/uarch -run TestHostCounterPins -update)", err)
	}
	if got != string(want) {
		t.Errorf("host counters drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
