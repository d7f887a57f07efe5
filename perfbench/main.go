// Command perfbench is the repository benchmark: five workloads that each
// exercise a different layer of the simulator and its services, measured
// end to end with tracing off, and layer by layer in a separate traced run.
// BENCHMARK.json at the repository root lists the workloads and metrics;
// README.md in this directory explains them.
//
// Usage (from the repository root, which run.py arranges):
//
//	perfbench -workload sim-long -seed 42 -seconds 15 -trace 0
//	perfbench -workload trace-replay -trace 1 -spans spans.json
//	perfbench -workload all -sets 2
//
// A run prints one line per metric, "<workload> <metric> <median> <unit>
// q1=… q3=… n=…", then one JSON object as its last line.  -sets N runs every
// workload N times in fresh processes, alternating their order, compares
// each end-to-end metric between the first two sets against its bound in
// BENCHMARK.json, and exits 1 if any is outside it, if simulated counters
// differ, or if anything failed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cobra/internal/obs"
)

//go:embed pins.json
var pinsJSON []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "input seed; 42 also checks the pinned counters")
	seconds := fs.Float64("seconds", 15, "measured time per run, after set-up and one warm-up cycle")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spansPath := fs.String("spans", "", "with -trace 1: write the spans as Chrome trace JSON here")
	sets := fs.Int("sets", 1, "with -workload all: run every workload this many times and compare the first two sets")
	root := fs.String("root", ".", "repository checkout the benchmark reads fleets and golden files from")
	workdir := fs.String("workdir", "", "scratch directory (default <root>/.bench_build/work)")
	probe := fs.Bool("probe-setup", false, "set the workload up, print ready, and exit (times setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: -workload <name|all> [-seed n] [-seconds s] [-trace 0|1]")
		return 2
	}
	if *workdir == "" {
		*workdir = filepath.Join(*root, ".bench_build", "work")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return fail(err)
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	cfg := config{seed: *seed, root: *root, workdir: dir}

	if *name == "all" {
		if err := runSets(cfg, *seconds, *sets, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q (have %s, all)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *probe {
		inst, err := w.setup(cfg, newLedger())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "ready")
		inst.close()
		return 0
	}

	var pins map[string]string
	if *seed == goldenSeed {
		if err := json.Unmarshal(pinsJSON, &pins); err != nil {
			return fail(fmt.Errorf("pins.json: %w", err))
		}
	}
	probeArgs := []string{"-probe-setup", "-workload", w.name, "-seed", strconv.FormatUint(*seed, 10),
		"-root", *root, "-workdir", dir}
	var spans *obs.SpanRecorder
	if *traceFlag == 1 {
		spans = obs.NewSpanRecorder(obs.TraceContext{}, 1<<16)
	}
	rs, err := measure(w, cfg, *seconds, *traceFlag == 1, pins, spans,
		func() (float64, error) { return probeSetup(probeArgs) })
	if err != nil {
		return fail(fmt.Errorf("%s: %w", w.name, err))
	}
	var res result
	if *traceFlag == 1 {
		res = rs.report(stdout, layerMetricDefs(), rs.perLayer())
		if *spansPath != "" {
			if err := writeSpans(*spansPath, spans); err != nil {
				return fail(err)
			}
			if n := spans.Dropped(); n > 0 {
				fmt.Fprintf(stderr, "perfbench: span buffer full, %d spans not written\n", n)
			}
		}
	} else {
		res = rs.report(stdout, e2eMetrics, rs.e2e())
		rs.reportUnscaled(stdout)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, w.name)
	}
	return out
}

func writeSpans(path string, rec *obs.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSpans(f, rec.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
