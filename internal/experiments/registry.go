package experiments

import (
	"fmt"
	"strings"
)

// entry is one renderable paper artifact: a table, figure, or discussion
// experiment, addressed by the id cobra-experiments and cobra-compose use.
type entry struct {
	id     string
	render func(Config) string
}

// registry lists every experiment in cobra-experiments' canonical order.
// One table: the tool's -exp switch, the fleet executor's `experiment:`
// services, and the documentation of valid ids all read from here.
var registry = []entry{
	{"table1", func(Config) string { return TableI().String() }},
	{"table2", func(Config) string { return TableII().String() }},
	{"table3", func(Config) string { return TableIII().String() }},
	{"fig8", func(Config) string { return Fig8() }},
	{"fig9", func(Config) string { return Fig9() }},
	{"fig10", func(c Config) string { _, t := Fig10(c); return t.String() }},
	{"d1", func(c Config) string { return SerializedFetch(c).String() }},
	{"d2", func(c Config) string { return TageLatency(c).String() }},
	{"d3", func(c Config) string { return HistoryRepair(c).String() }},
	{"d4", func(c Config) string { return SFB(c).String() }},
	{"tracegap", func(c Config) string { return TraceGap(c).String() }},
	{"energy", func(c Config) string { return Energy(c).String() }},
	{"h2p", func(c Config) string { return H2P(c).String() }},
	{"shootout", func(c Config) string { return Shootout(c).String() }},
	{"ablation-loop", func(c Config) string { return AblationLoop(c).String() }},
	{"ablation-ubtb", func(c Config) string { return AblationUBTB(c).String() }},
	{"ablation-meta", func(Config) string { return AblationMetadata().String() }},
	{"ablation-width", func(c Config) string { return AblationWidth(c).String() }},
}

// Ids lists every experiment id in canonical (paper) order.
func Ids() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	for _, e := range registry {
		if e.id == id {
			return true
		}
	}
	return false
}

// Render produces the named experiment's output — the exact bytes
// cobra-experiments prints for it (without the trailing newline Println
// adds).  Simulation-backed experiments run under cfg, including its
// Backend when set; a failed grid point (timeout, invariant violation,
// contained panic, unreachable backend) comes back as the returned error.
func Render(id string, cfg Config) (out string, err error) {
	for _, e := range registry {
		if e.id == id {
			defer func() {
				if r := recover(); r != nil {
					f, ok := r.(failure)
					if !ok {
						panic(r)
					}
					err = fmt.Errorf("experiment %s: %w", id, f.error)
				}
			}()
			return e.render(cfg), nil
		}
	}
	return "", fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(Ids(), " "))
}
