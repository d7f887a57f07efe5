package cli

import (
	"flag"
	"fmt"

	"cobra"
)

// diagramCmd is `cobra diagram` (cobra-diagram): the paper's pipeline
// diagrams as text — Fig. 2 (the sub-component interface timing), Fig. 4
// (the two example topologies of §IV-A), and Fig. 7 (the three evaluated
// designs) — or any custom topology.
//
//	cobra diagram -fig 2
//	cobra diagram -fig 4
//	cobra diagram -fig 7
//	cobra diagram -topology "TOURNEY3 > [GBIM2 > BTB2, LBIM2]"
func diagramCmd(fs *flag.FlagSet, _ *Config) func(*env) error {
	fig := fs.Int("fig", 7, "paper figure to render: 2, 4, or 7")
	topo := fs.String("topology", "", "render a custom topology instead")
	return func(e *env) error {
		render := func(d cobra.Design) error {
			d.Opt.Paranoid = d.Opt.Paranoid || e.Paranoid
			s, err := cobra.PipelineDiagram(d)
			if err != nil {
				return err
			}
			fmt.Fprintln(e.stdout, s)
			return nil
		}
		if *topo != "" {
			return render(cobra.Design{Name: "custom", Topology: *topo})
		}
		switch *fig {
		case 2:
			fmt.Fprint(e.stdout, cobra.InterfaceDiagram())
		case 4:
			fmt.Fprintln(e.stdout, "Fig. 4 — the two §IV-A topologies of {uBTB1, PHT2, LOOP2}:")
			fmt.Fprintln(e.stdout)
			if err := render(cobra.Design{Name: "topology-1", Topology: "LOOP2 > PHT2 > UBTB1"}); err != nil {
				return err
			}
			if err := render(cobra.Design{Name: "topology-2", Topology: "UBTB1 > PHT2 > LOOP2"}); err != nil {
				return err
			}
		case 7:
			fmt.Fprintln(e.stdout, "Fig. 7 — pipeline diagrams of the COBRA-generated predictors:")
			fmt.Fprintln(e.stdout)
			for _, d := range cobra.Designs() {
				if err := render(d); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("no figure %d (have 2, 4, 7)", *fig)
		}
		return nil
	}
}
