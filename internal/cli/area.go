package cli

import (
	"flag"
	"fmt"

	"cobra"
)

// areaCmd is `cobra area` (cobra-area): the Fig. 8 / Fig. 9 area
// breakdowns, predictor sub-component areas (including the generated
// management structures, "meta") and whole-core areas for each of the
// paper's three designs.
//
//	cobra area            # Fig. 8 for all three designs
//	cobra area -core      # Fig. 9 (whole core)
//	cobra area -design b2 # one design only
func areaCmd(fs *flag.FlagSet, _ *Config) func(*env) error {
	core := fs.Bool("core", false, "whole-core breakdown (Fig. 9) instead of predictor-only (Fig. 8)")
	design := fs.String("design", "", "restrict to one design: tage-l, b2, tourney")
	return func(e *env) error {
		designs := cobra.Designs()
		if *design != "" {
			designs = nil
			for _, d := range cobra.Designs() {
				if d.Name == *design {
					designs = []cobra.Design{d}
				}
			}
			if designs == nil {
				return fmt.Errorf("unknown design %q", *design)
			}
		}
		for _, d := range designs {
			d.Opt.Paranoid = d.Opt.Paranoid || e.Paranoid
			var (
				bd  cobra.Breakdown
				err error
			)
			if *core {
				bd, err = cobra.CoreArea(d, cobra.DefaultCoreConfig())
			} else {
				bd, err = cobra.PredictorArea(d)
			}
			if err != nil {
				return err
			}
			fmt.Fprint(e.stdout, bd.Render())
			if kb, err := d.StorageKB(); err == nil && !*core {
				fmt.Fprintf(e.stdout, "  predictor storage: %.1f KB (Table I)\n", kb)
			}
			fmt.Fprintln(e.stdout)
		}
		return nil
	}
}
