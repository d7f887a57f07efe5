// cobra-bench runs the deterministic benchmark harness and maintains the
// repo's committed performance trajectory (BENCH_*.json).
//
// Usage:
//
//	cobra-bench -o BENCH_6.json             # full run, write report
//	cobra-bench -quick                      # ~10× smaller budgets (CI smoke)
//	cobra-bench -compare BENCH_6.json       # re-run in the old report's mode
//	                                        # and exit 1 on regression
//
// Simulated counters (instructions, cycles, mispredicts) are deterministic
// per spec digest, so -compare gates them exactly across machines.
// Allocation rates get fractional headroom (-tol) for toolchain drift, and
// wall-clock throughput is gated only when -timing-tol is set explicitly —
// shared hosts are too noisy for timing gates by default.  Each report
// records the host's slowdown on a fixed reference kernel, and -compare
// prints every scenario's wall delta divided by the two reports' factors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cobra/internal/bench"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "shrink instruction budgets ~10x (CI smoke mode; reports are not comparable with full runs)")
		out       = flag.String("o", "", "write the JSON report to this path")
		compare   = flag.String("compare", "", "load an old report, re-run in its mode, and exit non-zero on regression")
		tol       = flag.Float64("tol", 0.10, "fractional headroom for allocation-rate gates in -compare")
		timingTol = flag.Float64("timing-tol", 0, "fractional headroom for insts/sec gates in -compare (0 = timing not gated)")
		workers   = flag.Int("j", 0, "runner workers (0 = GOMAXPROCS)")
		reps      = flag.Int("reps", 0, "measured repetitions per scenario (0 = 3, or 1 in quick mode)")
		quiet     = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cobra-bench: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}

	cfg := bench.Config{Quick: *quick, Workers: *workers, Reps: *reps}
	if !*quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "cobra-bench: "+format+"\n", args...)
		}
	}

	var old *bench.Report
	if *compare != "" {
		var err error
		old, err = bench.ReadFile(*compare)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cobra-bench: %v\n", err)
			os.Exit(2)
		}
		if old.Quick != cfg.Quick {
			// Match the committed report's mode so the runs are comparable.
			if !*quiet {
				mode := "full"
				if old.Quick {
					mode = "quick"
				}
				fmt.Fprintf(os.Stderr, "cobra-bench: switching to %s mode to match %s\n", mode, *compare)
			}
			cfg.Quick = old.Quick
		}
	}

	r, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cobra-bench: %v\n", err)
		os.Exit(1)
	}

	if *out != "" {
		if err := bench.WriteFile(*out, r); err != nil {
			fmt.Fprintf(os.Stderr, "cobra-bench: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "cobra-bench: wrote %s\n", *out)
		}
	} else if *compare == "" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fmt.Fprintf(os.Stderr, "cobra-bench: %v\n", err)
			os.Exit(1)
		}
	}

	if old != nil {
		for _, line := range bench.ScaledWallDeltas(old, r) {
			fmt.Fprintf(os.Stderr, "cobra-bench: %s\n", line)
		}
		regs := bench.Compare(old, r, bench.CompareOptions{AllocTol: *tol, TimingTol: *timingTol})
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "cobra-bench: %d regression(s) vs %s:\n", len(regs), *compare)
			for _, s := range regs {
				fmt.Fprintf(os.Stderr, "  - %s\n", s)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cobra-bench: no regressions vs %s\n", *compare)
	}
}
