package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cobra/internal/fleet"
)

// composeCmd is `cobra compose` (cobra-compose): run a fleet file, a
// compose-style YAML (or JSON) spec whose services are single runs, sweep
// grids, paper experiments, or bundles of other services, wired into a DAG
// with depends_on edges.  The executor runs the DAG in dependency stages,
// fans services and simulation cells out across workers, and skips every
// service whose content digest already has a cached result — so the first
// invocation reproduces the paper and the second is free, while editing one
// service re-runs exactly its downstream cone.
//
//	cobra compose -f fleets/paper.yaml
//	cobra compose -f fleets/paper.yaml -only fig10 -j 8
//	cobra compose -f fleets/paper.yaml -out results/
//	cobra compose -f fleets/paper-small.yaml -summary-json
//	cobra compose -f fleets/paper.yaml -server http://localhost:8080
//	cobra compose -f fleets/paper.yaml -list
//
// With -server every run and sweep cell executes on a cobra-serve daemon
// through the unified backend; outputs are byte-identical to a local run,
// because every cell is a canonical RunSpec and the daemon runs the same
// spec.Exec this process would.
func composeCmd(fs *flag.FlagSet, c *Config) func(*env) error {
	var (
		file     = fs.String("f", "fleet.yaml", "fleet file to run (YAML or JSON)")
		only     = fs.String("only", "", "comma-separated services to run (with their dependency cones); empty = the whole fleet")
		cacheDir = fs.String("cache-dir", ".cobra-compose", "result cache directory ('' disables caching)")
		force    = fs.Bool("force", false, "execute every service even on a cache hit, rewriting the cache")
		outDir   = fs.String("out", "", "write every service's output to <dir>/<service>.txt")
		summary  = fs.Bool("summary-json", false, "print the execution summary as JSON to stdout instead of service outputs")
		list     = fs.Bool("list", false, "print the fleet's stages and service digests without running, then exit")
		quiet    = fs.Bool("q", false, "suppress the per-service progress lines on stderr")
	)
	fs.IntVar(&c.Jobs, "j", 0, "parallel services per stage and cells per service (0 = GOMAXPROCS; outputs identical for any value)")
	return func(e *env) error {
		fl, err := fleet.Load(*file)
		if err != nil {
			return err
		}
		if *only != "" {
			if fl, err = fl.Restrict(strings.Split(*only, ",")); err != nil {
				return err
			}
		}

		if *list {
			stages, err := fl.Stages()
			if err != nil {
				return err
			}
			digests, err := fl.Digests()
			if err != nil {
				return err
			}
			for i, stage := range stages {
				for _, name := range stage {
					fmt.Fprintf(e.stdout, "stage=%d service=%s digest=%s\n", i, name, digests[name])
				}
			}
			return nil
		}

		opt := fleet.Options{
			Backend:     e.be,
			CacheDir:    *cacheDir,
			Parallelism: e.Jobs,
			Force:       *force,
			Digests:     e.digests(),
		}
		if !*quiet {
			opt.Log = e.stderr
		}
		res, err := fl.Run(context.Background(), opt)
		if err != nil {
			return err
		}

		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			for _, sr := range res.Ordered {
				path := filepath.Join(*outDir, sr.Name+".txt")
				if err := os.WriteFile(path, []byte(sr.Output), 0o644); err != nil {
					return err
				}
			}
		}

		switch {
		case *summary:
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return err
			}
			fmt.Fprintln(e.stdout, string(data))
		case *outDir == "":
			// Default: print the fleet's sinks — its final artifacts.
			for _, name := range fl.Sinks() {
				sr := res.Services[name]
				fmt.Fprintf(e.stdout, "=== %s ===\n%s\n", name, strings.TrimRight(sr.Output, "\n"))
			}
			fmt.Fprintf(e.stderr, "%s: %d executed, %d skipped\n", e.tool, res.Executed, res.Skipped)
		default:
			fmt.Fprintf(e.stderr, "%s: %d executed, %d skipped, outputs in %s\n",
				e.tool, res.Executed, res.Skipped, *outDir)
		}
		return nil
	}
}
