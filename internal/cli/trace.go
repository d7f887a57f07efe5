package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cobra"
)

// traceCmd is `cobra trace` (cobra-trace): capture branch traces from
// workloads and run the trace-driven (ChampSim-style) evaluator over them —
// the §II-B software-simulator methodology, provided so the modelling gap
// against the in-core numbers is reproducible from the shell.
//
//	cobra trace -capture -workload gcc -insts 2000000 -o gcc.cbrt
//	cobra trace -sim -design tage-l -i gcc.cbrt
//	cobra trace -sim -topology "GTAG3 > BTB2 > BIM2" -ghist 16 -i gcc.cbrt
//	cobra trace -capture -workload leela | cobra trace -sim -design b2
func traceCmd(fs *flag.FlagSet, c *Config) func(*env) error {
	c.Workload = "gcc"
	var (
		capture = fs.Bool("capture", false, "capture a branch trace")
		sim     = fs.Bool("sim", false, "run the trace-driven evaluator")
		outPath = fs.String("o", "", "output trace file (default stdout)")
		inPath  = fs.String("i", "", "input trace file (default stdin)")
	)
	return func(e *env) error {
		switch {
		case *capture:
			var n uint64
			capture := func(w io.Writer) (err error) {
				n, err = cobra.CaptureTrace(w, e.Workload, e.Seed, e.Insts)
				return err
			}
			var err error
			if *outPath != "" {
				err = writeFile(*outPath, capture)
			} else {
				err = capture(e.stdout)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(e.stderr, "%s: captured %d control-flow records from %s\n", e.tool, n, e.Workload)
		case *sim:
			in := os.Stdin
			if *inPath != "" {
				fl, err := os.Open(*inPath)
				if err != nil {
					return err
				}
				defer fl.Close()
				in = fl
			}
			s, err := e.Spec()
			if err != nil {
				return err
			}
			opt, err := s.Pipeline.Options()
			if err != nil {
				return err
			}
			opt.Paranoid = opt.Paranoid || e.Paranoid
			d := cobra.Design{Name: s.Design, Topology: s.Topology, Opt: opt}
			res, err := cobra.TraceSim(d, in)
			if err != nil {
				return err
			}
			fmt.Fprintf(e.stdout, "design=%s cfis=%d branches=%d mispredicts=%d accuracy=%.2f%% (idealized trace conditions)\n",
				d.Name, res.CFIs, res.Branches, res.Mispredicts, res.Accuracy()*100)
		default:
			return fmt.Errorf("need -capture or -sim")
		}
		return nil
	}
}
