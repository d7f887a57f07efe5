package components

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cobra/internal/history"
	"cobra/internal/pred"
)

// Env is the construction environment a factory receives: the fetch geometry
// plus the history providers the composer generated, so components can
// register folded histories (§IV-B.3).
type Env struct {
	Cfg    pred.Config
	Global *history.Global
	// ID is the node's pipeline-scoped provider ID, which the component
	// stamps on the predictions it provides (see pred.Provider).
	ID pred.Provider
}

// Factory builds a component instance.  name is the node's instance name
// (e.g. "TAGE3"), latency the digit suffix parsed from it, and size an
// optional "(n)" argument from the topology string (0 when absent).
type Factory func(env Env, name string, latency, size int) (pred.Subcomponent, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a factory under an upper-case base name (e.g. "TAGE").
// Registering a duplicate name panics: the registry is global configuration
// assembled at init time.
func Register(base string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	base = strings.ToUpper(base)
	if _, dup := registry[base]; dup {
		panic(fmt.Sprintf("components: duplicate registration of %q", base))
	}
	registry[base] = f
}

// Registered returns the sorted base names available to topologies.
func Registered() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Build constructs a component from a topology node name of the form
// BASE[latency][(size)], e.g. "UBTB1", "BIM2", "TAGE3", "LOOP3(256)".
// Constructor panics (parameter validation deep inside a component, e.g. a
// non-power-of-two geometry) are recovered and surfaced as errors naming the
// offending component, with the panic message as the error text — a bad
// config makes compose.New fail, never crashes the process.
func Build(env Env, nodeName string) (c pred.Subcomponent, err error) {
	base, latency, size, err := ParseNodeName(nodeName)
	if err != nil {
		return nil, err
	}
	regMu.RLock()
	f, ok := registry[base]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("components: unknown component %q (registered: %s)",
			base, strings.Join(Registered(), ", "))
	}
	defer func() {
		if r := recover(); r != nil {
			c, err = nil, fmt.Errorf("components: constructing %s (latency=%d size=%d): %v",
				nodeName, latency, size, r)
		}
	}()
	return f(env, nodeName, latency, size)
}

// ParseNodeName splits "LOOP3(256)" into base "LOOP", latency 3, size 256.
// A missing latency digit yields 0 (factory default); a missing size yields
// 0.
func ParseNodeName(s string) (base string, latency, size int, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", 0, 0, fmt.Errorf("components: empty node name")
	}
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return "", 0, 0, fmt.Errorf("components: malformed size in %q", s)
		}
		sz, perr := strconv.Atoi(s[i+1 : len(s)-1])
		if perr != nil || sz <= 0 {
			return "", 0, 0, fmt.Errorf("components: bad size in %q", s)
		}
		size = sz
		s = s[:i]
	}
	// Trailing digits are the latency.
	j := len(s)
	for j > 0 && s[j-1] >= '0' && s[j-1] <= '9' {
		j--
	}
	if j < len(s) {
		latency, _ = strconv.Atoi(s[j:])
	}
	base = strings.ToUpper(s[:j])
	if base == "" {
		return "", 0, 0, fmt.Errorf("components: node name %q has no base", s)
	}
	return base, latency, size, nil
}

func init() {
	Register("BIM", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 4096 // 16K counters / FetchWidth rows at the default width
		}
		return NewHBIM(env.Cfg, HBIMParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size, Source: IndexPC,
		}), nil
	})
	Register("GBIM", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 4096
		}
		return NewHBIM(env.Cfg, HBIMParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size, Source: IndexGlobal,
			HistLen: 16,
		}), nil
	})
	Register("LBIM", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 4096
		}
		return NewHBIM(env.Cfg, HBIMParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size, Source: IndexLocal,
			HistLen: 16,
		}), nil
	})
	Register("GSEL", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 4096
		}
		return NewHBIM(env.Cfg, HBIMParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size, Source: IndexGSelect,
			HistLen: 8,
		}), nil
	})
	Register("PBIM", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 4096
		}
		return NewHBIM(env.Cfg, HBIMParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size, Source: IndexPath,
			HistLen: 12,
		}), nil
	})
	// PHT is an alias the §IV-A worked example uses for a tagged
	// pattern-history table; GTAG provides the behaviour.
	for _, alias := range []string{"GTAG", "PHT"} {
		Register(alias, func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
			if size == 0 {
				size = 512 // 2K counters at FetchWidth=4
			}
			if env.Global.Len() < 16 {
				return nil, fmt.Errorf("components: %s needs 16 history bits but the global history register has %d",
					name, env.Global.Len())
			}
			return NewGTAG(env.Cfg, env.Global, GTAGParams{
				Name: name, ID: env.ID, Latency: latency, Entries: size,
			}), nil
		})
	}
	Register("BTB", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 512 // packet entries: 2K instruction slots at width 4
		}
		return NewBTB(env.Cfg, BTBParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size, Ways: 4,
		}), nil
	})
	Register("UBTB", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 32
		}
		if latency > 1 {
			return nil, fmt.Errorf("components: uBTB is single-cycle; latency %d unsupported", latency)
		}
		return NewUBTB(env.Cfg, UBTBParams{Name: name, ID: env.ID, Entries: size}), nil
	})
	Register("TAGE", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		p := DefaultTAGEParams(name)
		p.ID = env.ID
		if latency > 0 {
			p.Latency = latency
		}
		for _, hl := range p.HistLens {
			if hl > env.Global.Len() {
				return nil, fmt.Errorf("components: %s needs %d history bits but the global history register has %d (set Options.GHistBits >= %d)",
					name, hl, env.Global.Len(), hl)
			}
		}
		if size > 0 {
			// Scale table sizes uniformly toward the requested total rows.
			total := 0
			for _, e := range p.TableEntries {
				total += e
			}
			for i := range p.TableEntries {
				scaled := p.TableEntries[i] * size / total
				if scaled < 64 {
					scaled = 64
				}
				// Round down to a power of two.
				v := 64
				for v*2 <= scaled {
					v *= 2
				}
				p.TableEntries[i] = v
			}
		}
		return NewTAGE(env.Cfg, env.Global, p), nil
	})
	Register("TOURNEY", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 1024 // "1K tournament counters" (Table I)
		}
		return NewTourney(env.Cfg, TourneyParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size,
		}), nil
	})
	Register("LOOP", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 256 // "256-entry loop predictor" (Table I)
		}
		return NewLoop(env.Cfg, LoopParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size,
		}), nil
	})
	Register("PERC", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 256
		}
		return NewPerceptron(env.Cfg, PerceptronParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size, HistLen: 24,
		}), nil
	})
	Register("SCOR", func(env Env, name string, latency, size int) (pred.Subcomponent, error) {
		if size == 0 {
			size = 1024
		}
		return NewStatCorrector(env.Cfg, StatCorrectorParams{
			Name: name, ID: env.ID, Latency: latency, Entries: size,
		}), nil
	})
}
