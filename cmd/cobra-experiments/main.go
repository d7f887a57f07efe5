// Command cobra-experiments regenerates every table and figure of the paper
// plus the §VI discussion experiments and the ablations in DESIGN.md.
//
// Usage:
//
//	cobra-experiments -exp all -insts 2000000
//	cobra-experiments -exp fig10 -j 8
//	cobra-experiments -exp table1,table2,d3
//	cobra-experiments -exp fig10 -paranoid -timeout 5m
//	cobra-experiments -exp fig10 -server http://localhost:8080
//
// Experiment ids: table1 table2 table3 fig8 fig9 fig10 d1 d2 d3 d4
// tracegap ablation-loop ablation-ubtb ablation-meta h2p all
//
// Each experiment's independent simulations fan out across -j worker
// goroutines (default GOMAXPROCS); results are bit-identical for every -j,
// with -j 1 forcing the serial path.  With -server the same grids execute
// on a cobra-serve daemon through the unified backend — tables identical to
// local, because every grid point is a canonical RunSpec carrying its
// derived seed.  -timeout bounds every simulation; a failed one makes the
// tool exit 1 with the error.  Long runs can be watched live with -progress
// (periodic stderr status; per-run phase lines under -server),
// -metrics-addr (Prometheus text endpoint), and -pprof-addr (net/http/pprof
// + runtime trace).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"cobra/internal/cli"
	"cobra/internal/client"
	"cobra/internal/experiments"
)

func main() { cli.Main("cobra-experiments", run) }

func run() error {
	f := cli.AddRunFlags(flag.CommandLine,
		cli.GBudget|cli.GGuard|cli.GTelemetry|cli.GProgress|cli.GServer|cli.GDigest)
	var (
		exp  = flag.String("exp", "all", "comma-separated experiment ids")
		jobs = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulations (1 = serial; output identical for any value)")
	)
	flag.Parse()
	if exit, err := f.Handle("cobra-experiments"); err != nil || exit {
		return err
	}
	cfg := experiments.Config{Insts: *f.Insts, Warmup: *f.Warmup, Seed: *f.Seed,
		Parallelism: *jobs, Paranoid: *f.Paranoid, Timeout: *f.Timeout,
		Digests: f.DigestWriter()}

	var onProgress func(client.Progress)
	if f.ServerURL() != "" && f.Progress != nil && *f.Progress > 0 {
		// Grid points run concurrently, so a single rewritable line would
		// interleave; report phase transitions per run instead, tagged
		// with a short digest prefix.
		var (
			mu   sync.Mutex
			seen = map[string]string{}
		)
		onProgress = func(ev client.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if seen[ev.Digest] == ev.Phase || ev.Done {
				return
			}
			seen[ev.Digest] = ev.Phase
			id := strings.TrimPrefix(ev.Digest, "sha256:")
			if len(id) > 12 {
				id = id[:12]
			}
			fmt.Fprintf(os.Stderr, "run %s: phase=%s cycles=%d\n", id, ev.Phase, ev.Cycles)
		}
	}
	met, closeTel, err := f.Telemetry("cobra-experiments")
	if err != nil {
		return err
	}
	defer closeTel()
	cfg.Metrics = met
	// One flag decides where grids run; the grids themselves don't care.
	cfg.Backend, _, err = f.ResolveBackend("cobra-experiments", met, onProgress)
	if err != nil {
		return err
	}

	want := strings.Split(*exp, ",")
	if *exp == "all" {
		want = experiments.Ids()
	}
	for _, id := range want {
		out, err := experiments.Render(strings.TrimSpace(id), cfg)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	return nil
}
