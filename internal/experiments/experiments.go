// Package experiments implements the reproduction harness: one entry point
// per table and figure of the paper plus the §VI discussion experiments and
// the ablations DESIGN.md calls out.  The cmd/cobra-experiments tool and the
// top-level benchmarks both drive these functions, so the printed rows are
// identical either way.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cobra/internal/area"
	"cobra/internal/backend"
	"cobra/internal/commercial"
	"cobra/internal/compose"
	"cobra/internal/obs"
	"cobra/internal/pred"
	"cobra/internal/runner"
	"cobra/internal/spec"
	"cobra/internal/stats"
	"cobra/internal/trace"
	"cobra/internal/uarch"
	"cobra/internal/workloads"
)

// Config scales the experiments.
type Config struct {
	Insts  uint64 // architectural instructions per measured run
	Warmup uint64 // instructions discarded before measurement
	Seed   uint64

	// Parallelism caps the simulations a grid runs at once: 0 means
	// GOMAXPROCS, 1 forces the serial path.  Results are bit-identical for
	// every value (see internal/runner).
	Parallelism int

	// Paranoid arms the pipeline invariant checker on every simulated
	// design; any violation fails the experiment.  The checker is
	// observation-only, so tables are byte-identical either way.
	Paranoid bool

	// Timeout, when > 0, bounds each simulation's wall-clock time.  It
	// becomes every grid spec's TimeoutMS, so it holds on any backend.
	Timeout time.Duration

	// Metrics, when non-nil, receives live telemetry from the grids that run
	// in-process (served by cobra-experiments -metrics-addr and -progress).
	Metrics *obs.Metrics

	// Backend executes every grid; nil means in-process (backend.Local).
	// Grid point i is a canonical RunSpec with seed Derive(Seed, i), so
	// tables are byte-identical on every backend.  Grids that read
	// process-local outcome handles — Energy's pipelines, H2P's attribution
	// profiles — always run in-process.
	Backend backend.Backend
	// Digests, when non-nil, receives one "digest=<sha256>" line per grid
	// spec before it runs — the shared -print-digest surface of the CLI
	// tools.
	Digests io.Writer
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.Insts == 0 {
		c.Insts = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// design is one design point of an experiment's grid.
type design struct {
	name string
	topo string
	opt  compose.Options
}

// designs returns the Table I design points from spec.Preset, in the
// paper's order (tourney, b2, tage-l).
func designs() []design {
	var ds []design
	for _, name := range spec.PresetNames() {
		p, err := spec.Preset(name)
		must(err)
		opt, err := p.Pipeline.Options()
		must(err)
		ds = append(ds, design{name, p.Topology, opt})
	}
	return ds
}

// failure carries an experiment's failure (a failed grid point, a bad
// design) out of its table builder; Render recovers it into its error.
type failure struct{ error }

// must raises err, if any, as the experiment's failure.
func must(err error) {
	if err != nil {
		panic(failure{err})
	}
}

func pipeline(d design) *compose.Pipeline {
	p, err := compose.New(pred.DefaultConfig(), compose.MustParse(d.topo), d.opt)
	if err != nil {
		panic(failure{fmt.Errorf("%s: %w", d.name, err)})
	}
	return p
}

// job describes one grid point as the RunSpec every backend runs.  Its seed
// is left zero for execute to derive from the point's grid position.
func (c Config) job(d design, workload string, core uarch.Config) *spec.RunSpec {
	s := &spec.RunSpec{
		Topology: d.topo, Pipeline: spec.FromOptions(d.opt), Workload: workload,
		Insts: c.Insts, Warmup: c.Warmup, Core: &core, Paranoid: c.Paranoid,
	}
	s.SetTimeout(c.Timeout)
	return s
}

// execute runs a grid and returns its outcomes in grid order.  A point left
// at the zero seed runs with Derive(c.Seed, i), i its grid index, so a table
// depends on neither Parallelism nor the backend.  inProcess pins the grid to
// a local backend, for callers that read an outcome's pipeline or
// attribution profile.  Any failed point fails the experiment.
func (c Config) execute(specs []*spec.RunSpec, inProcess bool) []*spec.Outcome {
	be := c.Backend
	if _, local := be.(*backend.Local); be == nil || inProcess && !local {
		be = &backend.Local{Metrics: c.Metrics}
	}
	for i, s := range specs {
		if s.Seed == 0 {
			s.Seed = runner.Derive(c.Seed, uint64(i))
		}
		if c.Digests != nil {
			d, err := s.Digest()
			must(err)
			fmt.Fprintf(c.Digests, "digest=%s\n", d)
		}
	}
	outs, err := backend.All(context.Background(), be, specs, c.Parallelism)
	if err != nil {
		must(fmt.Errorf("backend %s: %w", be.Name(), err))
	}
	return outs
}

// runAll executes a grid on c's backend and returns its counters.
func (c Config) runAll(specs []*spec.RunSpec) []*stats.Sim {
	outs := c.execute(specs, false)
	res := make([]*stats.Sim, len(outs))
	for i, o := range outs {
		res[i] = o.Stats
	}
	return res
}

// ---- Table I ----

// TableI regenerates the design-parameter/storage table.
func TableI() *stats.Table {
	t := &stats.Table{
		Title:   "Table I — parameters of evaluated COBRA-designed predictors",
		Headers: []string{"design", "description", "storage"},
	}
	desc := map[string][]string{
		"tourney": {
			"32-bit global, 256x32-bit local histories",
			"2K-entry BTB w. 16K-entry 2-bit BHT",
			"1K tournament counters",
		},
		"b2": {
			"16-bit global history",
			"2K partially tagged + 16K untagged counters",
			"2K-entry BTB",
		},
		"tage-l": {
			"64-bit global history",
			"7 TAGE tables",
			"2K-entry BTB w. 32-entry uBTB",
			"256-entry loop predictor",
		},
	}
	for _, d := range designs() {
		p := pipeline(d)
		bits := 0
		for _, b := range p.ComponentBudgets() {
			bits += b.TotalBits()
		}
		kb := float64(bits) / 8 / 1024
		for i, line := range desc[d.name] {
			name, storage := "", ""
			if i == 0 {
				name = d.name
				storage = fmt.Sprintf("%.1f KB", kb)
			}
			t.AddRow(name, line, storage)
		}
	}
	return t
}

// ---- Table II ----

// TableII regenerates the core-configuration table from the live config.
func TableII() *stats.Table {
	c := uarch.DefaultConfig()
	t := &stats.Table{
		Title:   "Table II — evaluated BOOM configuration",
		Headers: []string{"unit", "configuration"},
	}
	t.AddRow("Frontend", fmt.Sprintf("%d-byte wide fetch", c.Fetch.PktBytes()))
	t.AddRow("", fmt.Sprintf("%d-wide decode/rename/commit", c.DecodeWidth))
	t.AddRow("Execute", fmt.Sprintf("%d-entry ROB", c.ROBEntries))
	t.AddRow("", fmt.Sprintf("%d pipelines (%d ALU, %d MEM, %d FP)",
		c.NumALU+c.NumMem+c.NumFP, c.NumALU, c.NumMem, c.NumFP))
	t.AddRow("", fmt.Sprintf("3x %d-entry IQs (INT, MEM, FP)", c.IQEntries))
	t.AddRow("Load-Store Unit", fmt.Sprintf("%d-entry LDQ, %d-entry STQ", c.LDQEntries, c.STQEntries))
	t.AddRow("", fmt.Sprintf("%d LD or %d ST per cycle", c.NumMem, c.NumMem))
	t.AddRow("L1 DCache", fmt.Sprintf("%d-way %d KB", c.L1Ways, c.L1Sets*c.L1Ways*c.LineBytes/1024))
	t.AddRow("L2 Cache", fmt.Sprintf("%d-way %d KB", c.L2Ways, c.L2Sets*c.L2Ways*c.LineBytes/1024))
	t.AddRow("Memory", fmt.Sprintf("flat %d-cycle latency (FASED model substitute)", c.MemLat))
	return t
}

// ---- Table III ----

// TableIII regenerates the evaluated-systems table.
func TableIII() *stats.Table {
	t := &stats.Table{
		Title:   "Table III — evaluated systems for SPECint17 proxy comparison",
		Headers: []string{"core", "predictor", "platform"},
	}
	for _, s := range commercial.Systems() {
		t.AddRow(s.Name, s.Topology, "cycle-level model (commercial proxy; paper: real silicon)")
	}
	for _, d := range designs() {
		t.AddRow("boom/"+d.name, d.topo, "cycle-level model (paper: FireSim FPGA simulation)")
	}
	return t
}

// ---- Fig. 8 / Fig. 9 ----

// Fig8 renders the predictor-area breakdowns.
func Fig8() string {
	var b strings.Builder
	b.WriteString("Fig. 8 — predictor area breakdown by sub-component\n\n")
	for _, d := range designs() {
		b.WriteString(area.Predictor(pipeline(d)).Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig9 renders the whole-core breakdowns.
func Fig9() string {
	var b strings.Builder
	b.WriteString("Fig. 9 — core area breakdown with each predictor\n\n")
	for _, d := range designs() {
		b.WriteString(area.Core(pipeline(d), uarch.DefaultConfig()).Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- Fig. 10 ----

// Fig10Row is one benchmark's results across systems.
type Fig10Row struct {
	Workload string
	MPKI     map[string]float64
	IPC      map[string]float64
}

// Fig10Systems is the evaluation order of Fig. 10.
var Fig10Systems = []string{"skylake", "graviton", "tourney", "b2", "tage-l"}

// Fig10 runs the 10 SPECint proxies across the five systems — a 50-point
// embarrassingly parallel grid — and returns per-benchmark rows plus a
// rendered table with HARMEAN summary rows.
func Fig10(cfg Config) ([]Fig10Row, *stats.Table) {
	cfg = cfg.Defaults()
	type point struct{ workload, system string }
	var jobs []*spec.RunSpec
	var grid []point
	for _, w := range workloads.Names() {
		for _, sys := range commercial.Systems() {
			jobs = append(jobs, cfg.job(design{sys.Name, sys.Topology, sys.Opt}, w, sys.Core))
			grid = append(grid, point{w, sys.Name})
		}
		for _, d := range designs() {
			jobs = append(jobs, cfg.job(d, w, uarch.DefaultConfig()))
			grid = append(grid, point{w, d.name})
		}
	}
	results := cfg.runAll(jobs)
	rows := make([]Fig10Row, 0, 10)
	byName := map[string]*Fig10Row{}
	for _, w := range workloads.Names() {
		rows = append(rows, Fig10Row{Workload: w, MPKI: map[string]float64{}, IPC: map[string]float64{}})
		byName[w] = &rows[len(rows)-1]
	}
	for i, res := range results {
		row := byName[grid[i].workload]
		row.MPKI[grid[i].system] = res.MPKI()
		row.IPC[grid[i].system] = res.IPC()
	}
	return rows, renderFig10(rows)
}

func renderFig10(rows []Fig10Row) *stats.Table {
	t := &stats.Table{
		Title:   "Fig. 10 — branch MPKI and IPC across systems (HARMEAN = harmonic mean)",
		Headers: []string{"benchmark", "metric"},
	}
	for _, s := range Fig10Systems {
		t.Headers = append(t.Headers, s)
	}
	hm := map[string]struct{ mpki, ipc []float64 }{}
	for _, r := range rows {
		mp := []string{r.Workload, "MPKI"}
		ip := []string{"", "IPC"}
		for _, s := range Fig10Systems {
			mp = append(mp, fmt.Sprintf("%.2f", r.MPKI[s]))
			ip = append(ip, fmt.Sprintf("%.3f", r.IPC[s]))
			e := hm[s]
			e.mpki = append(e.mpki, r.MPKI[s])
			e.ipc = append(e.ipc, r.IPC[s])
			hm[s] = e
		}
		t.AddRow(mp...)
		t.AddRow(ip...)
	}
	mp := []string{"HARMEAN", "MPKI"}
	ip := []string{"", "IPC"}
	for _, s := range Fig10Systems {
		m, _ := stats.HarmonicMean(positive(hm[s].mpki))
		i, _ := stats.HarmonicMean(hm[s].ipc)
		mp = append(mp, fmt.Sprintf("%.2f", m))
		ip = append(ip, fmt.Sprintf("%.3f", i))
	}
	t.AddRow(mp...)
	t.AddRow(ip...)
	return t
}

func positive(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		return []float64{1e-9}
	}
	return out
}

// ---- §II-A / D1: serialized fetch ----

// SerializedFetch compares superscalar vs serialized fetch on Dhrystone
// (the paper measured a 15% IPC drop).
func SerializedFetch(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "D1 — serializing fetch behind branches (paper: -15% IPC on Dhrystone)",
		Headers: []string{"fetch mode", "IPC", "MPKI", "delta-IPC"},
	}
	base := uarch.DefaultConfig()
	serialCfg := base
	serialCfg.SerializedFetch = true
	res := cfg.runAll([]*spec.RunSpec{
		cfg.job(designs()[2], "dhrystone", base),
		cfg.job(designs()[2], "dhrystone", serialCfg),
	})
	wide, serial := res[0], res[1]
	t.AddRow("superscalar", fmt.Sprintf("%.3f", wide.IPC()), fmt.Sprintf("%.2f", wide.MPKI()), "-")
	t.AddRow("serialized", fmt.Sprintf("%.3f", serial.IPC()), fmt.Sprintf("%.2f", serial.MPKI()),
		fmt.Sprintf("%+.1f%%", (serial.IPC()/wide.IPC()-1)*100))
	return t
}

// ---- §VI-A / D2: TAGE latency ----

// TageLatency compares a 2-cycle vs 3-cycle TAGE inside the TAGE-L topology
// (paper: no accuracy change, ~1% IPC cost) across the SPEC proxies.
func TageLatency(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "D2 — TAGE response latency 2 vs 3 cycles (paper: ~equal accuracy, ~1% IPC)",
		Headers: []string{"workload", "IPC@2", "IPC@3", "delta-IPC", "acc@2", "acc@3"},
	}
	d2 := design{"tage-l2", "LOOP3 > TAGE2 > BTB2 > BIM2 > UBTB1", compose.Options{GHistBits: 64}}
	d3 := designs()[2]
	var jobs []*spec.RunSpec
	for _, w := range workloads.Names() {
		jobs = append(jobs, cfg.job(d2, w, uarch.DefaultConfig()), cfg.job(d3, w, uarch.DefaultConfig()))
	}
	res := cfg.runAll(jobs)
	var deltas []float64
	for i, w := range workloads.Names() {
		r2, r3 := res[2*i], res[2*i+1]
		delta := (r3.IPC()/r2.IPC() - 1) * 100
		deltas = append(deltas, delta)
		t.AddRow(w,
			fmt.Sprintf("%.3f", r2.IPC()), fmt.Sprintf("%.3f", r3.IPC()),
			fmt.Sprintf("%+.2f%%", delta),
			fmt.Sprintf("%.2f%%", r2.Accuracy()*100), fmt.Sprintf("%.2f%%", r3.Accuracy()*100))
	}
	sort.Float64s(deltas)
	t.AddRow("median", "", "", fmt.Sprintf("%+.2f%%", deltas[len(deltas)/2]), "", "")
	return t
}

// ---- §VI-B / D3: global history repair policy ----

// HistoryRepair compares GHR policies across the SPEC proxies and Dhrystone
// (paper: repair+replay gives +15% IPC and -25% mispredicts over
// repair-without-replay on SPEC, but -3% IPC on Dhrystone).
func HistoryRepair(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "D3 — global history repair policy (§VI-B)",
		Headers: []string{"workload", "IPC none", "IPC repair", "IPC replay", "misp none", "misp repair", "misp replay"},
	}
	pols := []compose.GHRPolicy{compose.GHRNoRepair, compose.GHRRepair, compose.GHRRepairReplay}
	names := append(workloads.Names(), "dhrystone")
	var jobs []*spec.RunSpec
	for _, w := range names {
		for _, pol := range pols {
			d := designs()[2]
			d.opt.GHRPolicy = pol
			jobs = append(jobs, cfg.job(d, w, uarch.DefaultConfig()))
		}
	}
	res := cfg.runAll(jobs)
	var ipc [3][]float64
	var misp [3]uint64
	for wi, w := range names {
		var row [3]*stats.Sim
		for i := range pols {
			row[i] = res[wi*len(pols)+i]
			if w != "dhrystone" {
				ipc[i] = append(ipc[i], row[i].IPC())
				misp[i] += row[i].Mispredicts
			}
		}
		t.AddRow(w,
			fmt.Sprintf("%.3f", row[0].IPC()), fmt.Sprintf("%.3f", row[1].IPC()), fmt.Sprintf("%.3f", row[2].IPC()),
			fmt.Sprintf("%d", row[0].Mispredicts), fmt.Sprintf("%d", row[1].Mispredicts), fmt.Sprintf("%d", row[2].Mispredicts))
	}
	h0, _ := stats.HarmonicMean(ipc[0])
	h1, _ := stats.HarmonicMean(ipc[1])
	h2, _ := stats.HarmonicMean(ipc[2])
	t.AddRow("SPEC HARMEAN",
		fmt.Sprintf("%.3f", h0), fmt.Sprintf("%.3f", h1), fmt.Sprintf("%.3f", h2),
		fmt.Sprintf("%d", misp[0]), fmt.Sprintf("%d", misp[1]), fmt.Sprintf("%d", misp[2]))
	return t
}

// ---- §VI-C / D4: short-forwards-branch predication ----

// SFB compares the hammock-predication optimization on the CoreMark proxy
// (paper: 4.9 -> 6.1 CoreMarks/MHz, 97% -> 99.1% accuracy).
func SFB(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "D4 — short-forwards-branch predication on CoreMark (§VI-C)",
		Headers: []string{"SFB", "IPC (CoreMarks/MHz proxy)", "accuracy", "MPKI"},
	}
	base := uarch.DefaultConfig()
	sfbCfg := base
	sfbCfg.SFB = true
	res := cfg.runAll([]*spec.RunSpec{
		cfg.job(designs()[2], "coremark", base),
		cfg.job(designs()[2], "coremark", sfbCfg),
	})
	off, on := res[0], res[1]
	t.AddRow("off", fmt.Sprintf("%.3f", off.IPC()),
		fmt.Sprintf("%.2f%%", off.Accuracy()*100), fmt.Sprintf("%.2f", off.MPKI()))
	t.AddRow("on", fmt.Sprintf("%.3f", on.IPC()),
		fmt.Sprintf("%.2f%%", on.Accuracy()*100), fmt.Sprintf("%.2f", on.MPKI()))
	return t
}

// ---- §II-B: trace-driven vs in-core accuracy ----

// TraceGap quantifies software-trace-simulator modelling error: the same
// composed predictor evaluated under idealized trace conditions vs inside
// the speculating core.
func TraceGap(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	// Both methodologies must start cold: the trace evaluator has no
	// warm-up notion, so the in-core run drops its warm-up slice too.
	cfg.Warmup = 0
	t := &stats.Table{
		Title:   "Trace-driven vs in-core accuracy for identical predictor RTL (§II-B)",
		Headers: []string{"design", "workload", "trace acc", "in-core acc", "gap"},
	}
	type point struct {
		design, workload string
		traceAcc         float64
	}
	var grid []point
	var jobs []*spec.RunSpec
	for _, d := range designs() {
		for _, w := range []string{"gcc", "leela"} {
			prog, err := workloads.Get(w)
			must(err)
			var buf bytes.Buffer
			_, err = trace.Capture(&buf, prog, cfg.Seed, cfg.Insts)
			must(err)
			tr, err := trace.NewReader(&buf)
			must(err)
			tres, err := trace.Simulate(pipeline(d), tr)
			must(err)
			grid = append(grid, point{d.name, w, tres.Accuracy()})
			// The in-core run shares the capture's seed, not a derived one.
			j := cfg.job(d, w, uarch.DefaultConfig())
			j.Seed = cfg.Seed
			jobs = append(jobs, j)
		}
	}
	for i, cres := range cfg.runAll(jobs) {
		p := grid[i]
		t.AddRow(p.design, p.workload,
			fmt.Sprintf("%.2f%%", p.traceAcc*100),
			fmt.Sprintf("%.2f%%", cres.Accuracy()*100),
			fmt.Sprintf("%+.2f pp", (p.traceAcc-cres.Accuracy())*100))
	}
	return t
}

// ---- ablations ----

// AblationLoop measures the loop predictor's contribution to TAGE-L.
func AblationLoop(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "Ablation — TAGE-L with and without the loop corrector",
		Headers: []string{"workload", "MPKI with", "MPKI without", "IPC with", "IPC without"},
	}
	with := designs()[2]
	without := design{"tage-noloop", "TAGE3 > BTB2 > BIM2 > UBTB1", compose.Options{GHistBits: 64}}
	ws := []string{"x264", "exchange2", "xz", "coremark"}
	var jobs []*spec.RunSpec
	for _, w := range ws {
		jobs = append(jobs, cfg.job(with, w, uarch.DefaultConfig()), cfg.job(without, w, uarch.DefaultConfig()))
	}
	res := cfg.runAll(jobs)
	for i, w := range ws {
		a, b := res[2*i], res[2*i+1]
		t.AddRow(w,
			fmt.Sprintf("%.2f", a.MPKI()), fmt.Sprintf("%.2f", b.MPKI()),
			fmt.Sprintf("%.3f", a.IPC()), fmt.Sprintf("%.3f", b.IPC()))
	}
	return t
}

// AblationUBTB measures the single-cycle uBTB's redirect-bubble savings.
func AblationUBTB(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "Ablation — TAGE-L with and without the single-cycle uBTB",
		Headers: []string{"workload", "bubbles with", "bubbles without", "IPC with", "IPC without"},
	}
	with := designs()[2]
	without := design{"tage-noubtb", "LOOP3 > TAGE3 > BTB2 > BIM2", compose.Options{GHistBits: 64}}
	ws := []string{"dhrystone", "gcc", "xalancbmk"}
	var jobs []*spec.RunSpec
	for _, w := range ws {
		jobs = append(jobs, cfg.job(with, w, uarch.DefaultConfig()), cfg.job(without, w, uarch.DefaultConfig()))
	}
	res := cfg.runAll(jobs)
	for i, w := range ws {
		a, b := res[2*i], res[2*i+1]
		t.AddRow(w,
			fmt.Sprintf("%.1f%%", a.BubbleFrac()*100), fmt.Sprintf("%.1f%%", b.BubbleFrac()*100),
			fmt.Sprintf("%.3f", a.IPC()), fmt.Sprintf("%.3f", b.IPC()))
	}
	return t
}

// Shootout races every direction-predictor component in the library as the
// top of a common "X > BTB2 > BIM2" topology — the quick design-space sweep
// COBRA's reuse story enables (one line of topology per candidate).
func Shootout(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "Library shootout — every direction component over BTB2 > BIM2",
		Headers: []string{"component", "gcc MPKI", "gcc IPC", "leela MPKI", "leela IPC", "storage KB"},
	}
	comps := []string{
		"GBIM3", "GSEL3", "PBIM3", "GSKEW3", "YAGS3", "GTAG3", "PERC3", "GEHL3", "TAGE3",
	}
	var jobs []*spec.RunSpec
	for _, comp := range comps {
		d := design{comp, comp + " > BTB2 > BIM2", compose.Options{GHistBits: 64}}
		jobs = append(jobs, cfg.job(d, "gcc", uarch.DefaultConfig()), cfg.job(d, "leela", uarch.DefaultConfig()))
	}
	res := cfg.runAll(jobs)
	for i, comp := range comps {
		d := design{comp, comp + " > BTB2 > BIM2", compose.Options{GHistBits: 64}}
		p := pipeline(d)
		bits := 0
		for _, b := range p.ComponentBudgets() {
			bits += b.TotalBits()
		}
		g, l := res[2*i], res[2*i+1]
		t.AddRow(comp,
			fmt.Sprintf("%.2f", g.MPKI()), fmt.Sprintf("%.3f", g.IPC()),
			fmt.Sprintf("%.2f", l.MPKI()), fmt.Sprintf("%.3f", l.IPC()),
			fmt.Sprintf("%.1f", float64(bits)/8/1024))
	}
	return t
}

// AblationWidth compares the default 4x4-byte fetch geometry against the
// paper's 8x2-byte RVC geometry (§III-C: superscalar prediction matters as
// fetch units widen) with the TAGE-L design on identical program structure:
// spec.Exec lays each proxy out for its core's instruction width.
func AblationWidth(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "Ablation — fetch geometry: 4x4B vs 8x2B packets (§III-C)",
		Headers: []string{"workload", "IPC 4-wide", "IPC 8-wide", "delta", "MPKI 4-wide", "MPKI 8-wide"},
	}
	job := func(w string, fetch pred.Config) *spec.RunSpec {
		core := uarch.DefaultConfig()
		core.Fetch = fetch
		return cfg.job(designs()[2], w, core)
	}
	ws := []string{"gcc", "x264", "exchange2"}
	var jobs []*spec.RunSpec
	for _, w := range ws {
		jobs = append(jobs,
			job(w, pred.Config{FetchWidth: 4, InstBytes: 4}),
			job(w, pred.Config{FetchWidth: 8, InstBytes: 2}))
	}
	res := cfg.runAll(jobs)
	for i, w := range ws {
		n, wide := res[2*i], res[2*i+1]
		t.AddRow(w,
			fmt.Sprintf("%.3f", n.IPC()), fmt.Sprintf("%.3f", wide.IPC()),
			fmt.Sprintf("%+.1f%%", (wide.IPC()/n.IPC()-1)*100),
			fmt.Sprintf("%.2f", n.MPKI()), fmt.Sprintf("%.2f", wide.MPKI()))
	}
	return t
}

// AblationMetadata reports the port/area consequence of the §III-D metadata
// design: with metadata, predictor memories are 1R1W; without, update-time
// re-reads force a second read port.
func AblationMetadata() *stats.Table {
	t := &stats.Table{
		Title:   "Ablation — metadata round-trip vs update-time re-read (§III-D)",
		Headers: []string{"design", "area 1R1W (meta)", "area 2R1W (re-read)", "overhead"},
	}
	for _, d := range designs() {
		p := pipeline(d)
		var with, without float64
		for _, b := range p.ComponentBudgets() {
			with += area.OfBudget(b)
			b2 := b
			b2.Mems = nil
			for _, m := range b.Mems {
				m.ReadPorts++ // the extra update-time read port
				b2.Mems = append(b2.Mems, m)
			}
			without += area.OfBudget(b2)
		}
		t.AddRow(d.name,
			fmt.Sprintf("%.1f kU", with/1000), fmt.Sprintf("%.1f kU", without/1000),
			fmt.Sprintf("%+.1f%%", (without/with-1)*100))
	}
	return t
}

// Energy reports per-design predictor SRAM access energy per kilo-
// instruction — the §VI-A future-work concern, measurable here because
// every table is an access-counted memory model.
func Energy(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title:   "Predictor SRAM access energy (model units per kilo-instruction)",
		Headers: []string{"design", "workload", "eU/kinst", "top consumer"},
	}
	type point struct {
		d design
		w string
	}
	var grid []point
	var jobs []*spec.RunSpec
	for _, d := range designs() {
		for _, w := range []string{"gcc", "x264"} {
			grid = append(grid, point{d, w})
			jobs = append(jobs, cfg.job(d, w, uarch.DefaultConfig()))
		}
	}
	for i, r := range cfg.execute(jobs, true) {
		rep := area.Energy(r.Pipeline)
		top := ""
		best := -1.0
		for _, it := range rep.Items {
			if it.Units > best {
				best, top = it.Units, it.Name
			}
		}
		t.AddRow(grid[i].d.name, grid[i].w,
			fmt.Sprintf("%.0f", rep.PerKiloInst(r.Stats.Instructions)), top)
	}
	return t
}

// ---- H2P summary ----

// H2P profiles the Table I designs on the branchy SPECint proxies and
// summarizes how concentrated each design's mispredictions are in a handful
// of static branches — the "hard-to-predict branch" phenomenon: a small set
// of static H2Ps dominates MPKI, so per-PC attribution tells a composer
// where a topology change would actually pay off.
func H2P(cfg Config) *stats.Table {
	cfg = cfg.Defaults()
	t := &stats.Table{
		Title: "H2P summary — misprediction concentration per design (committed CFIs)",
		Headers: []string{"design", "workload", "pcs", "mispredicts",
			"top-1", "top-5", "top-10", "hardest pc", "wrong provider"},
	}
	type point struct {
		d design
		w string
	}
	var grid []point
	var jobs []*spec.RunSpec
	for _, d := range designs() {
		for _, w := range []string{"gcc", "leela"} {
			grid = append(grid, point{d, w})
			j := cfg.job(d, w, uarch.DefaultConfig())
			j.Observe.Attribution = true
			jobs = append(jobs, j)
		}
	}
	for i, r := range cfg.execute(jobs, true) {
		prof := r.Profile
		if got, want := prof.TotalMispredicts(), r.Stats.Mispredicts; got != want {
			must(fmt.Errorf("h2p attribution drift (%s on %s): profile %d != counter %d",
				grid[i].d.name, grid[i].w, got, want))
		}
		hardest, wrong := "-", "-"
		if top := prof.Top(1); len(top) > 0 && top[0].Misp > 0 {
			hardest = fmt.Sprintf("0x%x (%s)", top[0].PC, top[0].Kind)
			if len(top[0].WrongBy) > 0 {
				ks := stats.SortedKeys(top[0].WrongBy)
				best := ks[0]
				for _, k := range ks {
					if top[0].WrongBy[k] > top[0].WrongBy[best] {
						best = k
					}
				}
				wrong = best
			}
		}
		t.AddRow(grid[i].d.name, grid[i].w,
			fmt.Sprintf("%d", prof.PCs()),
			fmt.Sprintf("%d", prof.TotalMispredicts()),
			fmt.Sprintf("%.1f%%", prof.ShareTop(1)*100),
			fmt.Sprintf("%.1f%%", prof.ShareTop(5)*100),
			fmt.Sprintf("%.1f%%", prof.ShareTop(10)*100),
			hardest, wrong)
	}
	return t
}
