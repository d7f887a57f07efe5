package cli

import (
	"flag"
	"fmt"
	"strings"

	"cobra/internal/experiments"
)

// experimentsCmd is `cobra experiments` (cobra-experiments): regenerate
// every table and figure of the paper plus the §VI discussion experiments
// and the ablations in DESIGN.md.
//
//	cobra experiments -exp all -insts 2000000
//	cobra experiments -exp fig10 -j 8
//	cobra experiments -exp table1,table2,d3
//	cobra experiments -exp fig10 -paranoid -timeout 5m
//	cobra experiments -exp fig10 -server http://localhost:8080
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
func experimentsCmd(fs *flag.FlagSet, _ *Config) func(*env) error {
	exp := fs.String("exp", "all", "comma-separated experiment ids")
	return func(e *env) error {
		cfg := experiments.Config{Insts: e.Insts, Warmup: e.Warmup, Seed: e.Seed,
			Parallelism: e.Jobs, Paranoid: e.Paranoid, Timeout: e.Timeout,
			Metrics: e.met, Backend: e.be, Digests: e.digests()}
		want := strings.Split(*exp, ",")
		if *exp == "all" {
			want = experiments.Ids()
		}
		for _, id := range want {
			out, err := experiments.Render(strings.TrimSpace(id), cfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(e.stdout, out)
		}
		return nil
	}
}
