// Command cobra-compose runs a fleet file: a compose-style YAML (or JSON)
// spec whose services are single runs, sweep grids, paper experiments, or
// bundles of other services, wired into a DAG with depends_on edges.  The
// executor runs the DAG in dependency stages, fans services and simulation
// cells out across workers, and skips every service whose content digest
// already has a cached result — so the first invocation reproduces the
// paper and the second is free, while editing one service re-runs exactly
// its downstream cone.
//
// Usage:
//
//	cobra-compose -f fleets/paper.yaml
//	cobra-compose -f fleets/paper.yaml -only fig10 -j 8
//	cobra-compose -f fleets/paper.yaml -out results/
//	cobra-compose -f fleets/paper-small.yaml -summary-json
//	cobra-compose -f fleets/paper.yaml -server http://localhost:8080
//	cobra-compose -f fleets/paper.yaml -list
//
// With -server every run and sweep cell executes on a cobra-serve daemon
// through the unified backend; outputs are byte-identical to a local run,
// because every cell is a canonical RunSpec and the daemon runs the same
// spec.Exec this process would.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cobra/internal/cli"
	"cobra/internal/fleet"
)

func main() { cli.Main("cobra-compose", run) }

func run() error {
	f := cli.AddRunFlags(flag.CommandLine, cli.GTelemetry|cli.GServer|cli.GDigest)
	var (
		file     = flag.String("f", "fleet.yaml", "fleet file to run (YAML or JSON)")
		only     = flag.String("only", "", "comma-separated services to run (with their dependency cones); empty = the whole fleet")
		jobs     = flag.Int("j", 0, "parallel services per stage and cells per service (0 = GOMAXPROCS; outputs identical for any value)")
		cacheDir = flag.String("cache-dir", ".cobra-compose", "result cache directory ('' disables caching)")
		force    = flag.Bool("force", false, "execute every service even on a cache hit, rewriting the cache")
		outDir   = flag.String("out", "", "write every service's output to <dir>/<service>.txt")
		summary  = flag.Bool("summary-json", false, "print the execution summary as JSON to stdout instead of service outputs")
		list     = flag.Bool("list", false, "print the fleet's stages and service digests without running, then exit")
		quiet    = flag.Bool("q", false, "suppress the per-service progress lines on stderr")
	)
	flag.Parse()
	if exit, err := f.Handle("cobra-compose"); err != nil || exit {
		return err
	}

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
				fmt.Printf("stage=%d service=%s digest=%s\n", i, name, digests[name])
			}
		}
		return nil
	}

	met, closeTel, err := f.Telemetry("cobra-compose")
	if err != nil {
		return err
	}
	defer closeTel()
	be, _, err := f.ResolveBackend("cobra-compose", met, nil)
	if err != nil {
		return err
	}

	opt := fleet.Options{
		Backend:     be,
		CacheDir:    *cacheDir,
		Parallelism: *jobs,
		Force:       *force,
		Digests:     f.DigestWriter(),
	}
	if !*quiet {
		opt.Log = os.Stderr
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
		fmt.Println(string(data))
	case *outDir == "":
		// Default: print the fleet's sinks — its final artifacts.
		for _, name := range fl.Sinks() {
			sr := res.Services[name]
			fmt.Printf("=== %s ===\n%s\n", name, strings.TrimRight(sr.Output, "\n"))
		}
		fmt.Fprintf(os.Stderr, "cobra-compose: %d executed, %d skipped\n", res.Executed, res.Skipped)
	default:
		fmt.Fprintf(os.Stderr, "cobra-compose: %d executed, %d skipped, outputs in %s\n",
			res.Executed, res.Skipped, *outDir)
	}
	return nil
}
