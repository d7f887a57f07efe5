package cli

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cobra"
	"cobra/internal/area"
	"cobra/internal/runner"
	"cobra/internal/spec"
)

// sweepCmd is `cobra sweep` (cobra-sweep): design-space sweeps as CSV — the
// productivity story of the paper's Fig. 1 flow ("design feedback") made
// scriptable.  It crosses a set of topologies with a set of workloads and,
// optionally, host configurations, reporting accuracy, IPC, storage, area,
// and energy per point.
//
//	cobra sweep -workloads gcc,mcf,leela \
//	    -topologies "BIM2;GTAG3 > BTB2 > BIM2;LOOP3 > TAGE3 > BTB2 > BIM2 > UBTB1"
//	cobra sweep -designs -workloads all -insts 500000 -host inorder
//	cobra sweep -tagesizes 512,1024,2048,4096 -workloads gcc -j 8
//	cobra sweep -designs -workloads all -keep-going -timeout 2m
//	cobra sweep -designs -workloads gcc,mcf -print-set > sweep.json
//	cobra sweep -set sweep.json
//
// The grid is a spec.Set — design axis crossed with workload axis over one
// base spec — the same data model cobra compose's sweep services run, with
// its own content digest.  Every cell expands to a canonical RunSpec (what
// cobra sim -spec runs and cobra serve caches), fanned out across -j worker
// goroutines (default GOMAXPROCS); rows are emitted in grid order and are
// bit-identical for every -j.  With -keep-going, a failing cell (panic,
// timeout, bad config) is reported on stderr while every healthy cell still
// emits its row; without it the first failure aborts the sweep.
func sweepCmd(fs *flag.FlagSet, c *Config) func(*env) error {
	c.Insts = 300000
	var (
		topologies = fs.String("topologies", "", "semicolon-separated topology strings")
		designsF   = fs.Bool("designs", false, "sweep the three Table I designs")
		tageSizes  = fs.String("tagesizes", "", "comma-separated TAGE row counts to sweep inside the TAGE-L topology")
		workloadsF = fs.String("workloads", "", "comma-separated workloads, or 'all' for the SPECint proxies (overrides -workload)")
		keepGoing  = fs.Bool("keep-going", false, "report failed cells on stderr and keep sweeping instead of aborting")
		setPath    = fs.String("set", "", "run the spec.Set JSON file at this path instead of building a grid from flags")
		printSet   = fs.Bool("print-set", false, "print the grid's canonical spec.Set JSON to stdout and its digest to stderr, then exit without running")
	)
	fs.UintVar(&c.GHist, "ghist", c.GHist, "global history bits for -topologies points")
	return func(e *env) error {
		var (
			set *spec.Set
			err error
		)
		if *setPath != "" {
			set, err = loadSet(*setPath)
		} else {
			set, err = buildSet(e.Config, *designsF, *tageSizes, *topologies, *workloadsF)
		}
		if err != nil {
			return err
		}
		e.shapeOutput(&set.Base)
		if err := set.Canonicalize(); err != nil {
			return err
		}
		if *printSet {
			return printCanonical(e.stdout, e.stderr, set)
		}
		specs, err := set.Expand()
		if err != nil {
			return err
		}
		if err := e.emitDigests(specs...); err != nil {
			return err
		}

		// The workload axis is the innermost (fastest) index, so cells
		// group into per-design rows of rowLen cells each.  Static metrics
		// (storage, area) depend only on the design and are computed once
		// per row, from its first cell.  A design whose statics fail (bad
		// geometry) aborts the sweep unless -keep-going, which reports it
		// once on stderr and drops its row while the rest of the grid
		// still runs.
		rowLen := 1
		if n := len(set.Axes); n > 0 {
			rowLen = len(set.Axes[n-1].Values)
		}
		type static struct {
			kb   float64
			arKU float64
		}
		nDesigns := len(specs) / rowLen
		statics := make([]static, nDesigns)
		okDesign := make([]bool, nDesigns)
		skippedCells := 0
		for di := 0; di < nDesigns; di++ {
			p := specs[di*rowLen]
			opt, err := p.Pipeline.Options()
			if err == nil {
				d := cobra.Design{Name: p.Design, Topology: p.Topology, Opt: opt}
				var kb float64
				if kb, err = d.StorageKB(); err == nil {
					var bd cobra.Breakdown
					if bd, err = cobra.PredictorArea(d); err == nil {
						statics[di] = static{kb, bd.Total() / 1000}
						okDesign[di] = true
						continue
					}
				}
			}
			if !*keepGoing {
				return err
			}
			fmt.Fprintln(e.stderr, e.tool+":", err)
			skippedCells += rowLen
		}
		var (
			run     []*spec.RunSpec
			designI []int // run index -> design row
		)
		for i, s := range specs {
			if okDesign[i/rowLen] {
				run = append(run, s)
				designI = append(designI, i/rowLen)
			}
		}

		w := csv.NewWriter(e.stdout)
		defer w.Flush()
		w.Write([]string{"design", "topology", "workload", "host",
			"instructions", "cycles", "ipc", "mpki", "accuracy",
			"bubble_frac", "storage_kb", "area_ku", "energy_eu_per_kinst"})

		policy := runner.FailFast
		if *keepGoing {
			policy = runner.CollectAll
		}
		full, err := runner.RunSpecs(run, runner.Options{
			Workers: e.Jobs, Policy: policy, Metrics: e.met,
		})
		var batch *runner.BatchError
		if err != nil && !(errors.As(err, &batch) && *keepGoing) {
			return err
		}
		failed := map[int]bool{}
		if batch != nil {
			for _, je := range batch.Errs {
				failed[je.Index] = true
				fmt.Fprintln(e.stderr, e.tool+":", je)
			}
		}
		for i, r := range full {
			if failed[i] {
				continue
			}
			s, res := run[i], r.Outcome.Stats
			energy := area.Energy(r.Outcome.Pipeline)
			w.Write([]string{
				s.Design, s.Topology, s.Workload, s.Host,
				fmt.Sprint(res.Instructions), fmt.Sprint(res.Cycles),
				fmt.Sprintf("%.4f", res.IPC()),
				fmt.Sprintf("%.3f", res.MPKI()),
				fmt.Sprintf("%.5f", res.Accuracy()),
				fmt.Sprintf("%.4f", res.BubbleFrac()),
				fmt.Sprintf("%.1f", statics[designI[i]].kb),
				fmt.Sprintf("%.1f", statics[designI[i]].arKU),
				fmt.Sprintf("%.0f", energy.PerKiloInst(res.Instructions)),
			})
		}
		if n := len(failed) + skippedCells; n > 0 {
			w.Flush()
			return fmt.Errorf("%d of %d points failed (successful rows emitted above)",
				n, len(specs))
		}
		return nil
	}
}

// buildSet assembles the flag-described grid as a spec.Set: one design axis
// (presets, TAGE sizes, or explicit topologies) crossed with one workload
// axis over a base spec carrying the budget and host flags.
func buildSet(c *Config, designsF bool, tageSizes, topologies, workloadsF string) (*spec.Set, error) {
	base := spec.RunSpec{
		Seed:            c.Seed,
		Insts:           c.Insts,
		Warmup:          c.Warmup,
		Host:            c.Host,
		SerializedFetch: c.Serialized,
		SFB:             c.SFB,
	}
	var designs spec.Axis
	switch {
	case designsF:
		designs = spec.Axis{Field: "design", Values: spec.PresetNames()}
	case tageSizes != "":
		designs.Field = "topology"
		base.Pipeline.GHistBits = 64
		for _, s := range strings.Split(tageSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("bad -tagesizes entry %q", s)
			}
			designs.Values = append(designs.Values,
				fmt.Sprintf("LOOP3 > TAGE3(%d) > BTB2 > BIM2 > UBTB1", n))
			designs.Names = append(designs.Names, fmt.Sprintf("tage-l-%d", n))
		}
	case topologies != "":
		designs.Field = "topology"
		base.Pipeline.GHistBits = c.GHist
		for i, topo := range strings.Split(topologies, ";") {
			designs.Values = append(designs.Values, strings.TrimSpace(topo))
			designs.Names = append(designs.Names, fmt.Sprintf("t%d", i))
		}
	default:
		designs = spec.Axis{Field: "design", Values: spec.PresetNames()}
	}

	var ws []string
	switch {
	case workloadsF == "all":
		ws = cobra.Workloads()
	case workloadsF != "":
		ws = strings.Split(workloadsF, ",")
	default:
		ws = []string{c.Workload}
	}

	return &spec.Set{
		Name: "cobra-sweep",
		Base: base,
		Axes: []spec.Axis{designs, {Field: "workload", Values: ws}},
	}, nil
}

// loadSet reads and parses a spec.Set JSON file.
func loadSet(path string) (*spec.Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return spec.ParseSet(data)
}
