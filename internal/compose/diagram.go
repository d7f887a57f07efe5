package compose

import (
	"fmt"
	"sort"
	"strings"
)

// Diagram renders an ASCII pipeline diagram of a topology in the style of
// the paper's Fig. 4 and Fig. 7: one row per sub-component, one column per
// fetch stage, showing at which stage each component responds and which
// component provides the final prediction at each stage (the overriding
// hierarchy of §IV-A).
func Diagram(p *Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Topology: %s\n", p.Topo)
	fmt.Fprintf(&b, "Depth: %d cycle(s); policy: %s\n\n", p.depth, p.Opt.GHRPolicy)

	// Header row.
	nameW := len("component")
	for _, n := range p.nodes {
		if len(n.name) > nameW {
			nameW = len(n.name)
		}
	}
	colW := 9
	fmt.Fprintf(&b, "%-*s |", nameW, "component")
	for d := 0; d <= p.depth; d++ {
		fmt.Fprintf(&b, " %-*s|", colW, fmt.Sprintf("Fetch-%d", d))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s-+", strings.Repeat("-", nameW))
	for d := 0; d <= p.depth; d++ {
		fmt.Fprintf(&b, "%s+", strings.Repeat("-", colW+1))
	}
	b.WriteByte('\n')

	// One row per component, slowest (most powerful) first: reverse topo
	// order puts the root (final prediction provider) at the top, matching
	// the paper's figures.
	rows := make([]pnode, len(p.nodes))
	copy(rows, p.nodes)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].lat > rows[j].lat })
	for _, n := range rows {
		fmt.Fprintf(&b, "%-*s |", nameW, n.name)
		for d := 0; d <= p.depth; d++ {
			cell := ""
			switch {
			case d == 0:
				cell = "query"
			case d == 1 && n.lat >= 2:
				cell = "hist-in"
			}
			if d == n.lat {
				cell = "respond"
			} else if d > n.lat && d >= 1 {
				cell = "pinned"
			}
			fmt.Fprintf(&b, " %-*s|", colW, cell)
		}
		b.WriteByte('\n')
	}

	// Final-prediction hierarchy per stage: which components can have
	// spoken by stage d, in override order (root chain first).
	b.WriteByte('\n')
	for d := 1; d <= p.depth; d++ {
		var spoke []string
		for i := len(p.nodes) - 1; i >= 0; i-- {
			if p.nodes[i].lat <= d {
				spoke = append(spoke, p.nodes[i].name)
			}
		}
		fmt.Fprintf(&b, "Fetch-%d final prediction: %s\n", d, strings.Join(spoke, " > "))
	}
	b.WriteString("\nRedirect rule: the Fetch-d prediction overrides the packet fetched d\n")
	b.WriteString("cycles later when they disagree, squashing the younger fetches\n")
	b.WriteString("(Alpha 21264-style overriding, §IV-B).\n")
	return b.String()
}

// InterfaceDiagram renders the §III timing contract (the paper's Fig. 2):
// when a pipelined sub-component may read its inputs and respond.
func InterfaceDiagram(maxLat int) string {
	var b strings.Builder
	b.WriteString("COBRA sub-component interface timing (Fig. 2)\n\n")
	b.WriteString("stage    | available inputs            | may respond?\n")
	b.WriteString("---------+------------------------------+-------------\n")
	for d := 0; d <= maxLat; d++ {
		in, resp := "", "no"
		switch {
		case d == 0:
			in = "fetch PC (predict signal)"
		case d == 1:
			in = "histories (ghist, lhist)"
			resp = "yes (p=1: PC-only components)"
		default:
			in = "predict_in(d') for d' <= d"
			resp = fmt.Sprintf("yes (p=%d)", d)
		}
		fmt.Fprintf(&b, "Fetch-%-2d | %-28s | %s\n", d, in, resp)
	}
	b.WriteString("\nContract: a prediction made at cycle p must be repeated or refined\n")
	b.WriteString("(never retracted) at every cycle d > p (§III-A).\n")
	return b.String()
}
