// Package interval is the time-resolved half of the observability stack: a
// windowed simulation-telemetry subsystem that samples per-window counter
// deltas — IPC, MPKI, per-provider accuracy, override rate, squashes,
// BTB/RAS events, H2P-set mispredicts — every N committed instructions.
//
// Every whole-run counter the evaluation reports (Tables I–III) averages
// away exactly the phenomena compositions exploit: warmup transients, phase
// behavior, hard-to-predict branches flipping providers in bursts.  The
// Recorder is the uarch core's one telemetry sink — it also carries the
// run's live progress and feeds the batch Prometheus counters — and closes
// one Window per N instructions (quantized to the core's 8192-cycle flush
// cadence, so sampling adds no new branches to the hot loop) into a bounded
// ring with zero steady-state allocations.  The windows serialize to the compact
// CBRAIVL1 binary codec (codec.go), whose encoded bytes also define the
// set's content hash — the determinism pin that makes interval files
// comparable across parallelism levels and execution backends.
//
// Compare (diff.go) aligns two runs' windows and names the first divergent
// one — the substrate cmd/cobra-diff builds its cycle-level bisection on.
package interval

import "math"

// DefaultInsts is the default window size in committed instructions.
const DefaultInsts = 100_000

// H2PThreshold is the cumulative per-PC mispredict count at which a branch
// joins the hard-to-predict set: from then on its mispredicts are counted in
// Window.H2PMispredicts.  The on-line definition follows the observation
// that H2P impact concentrates in a small, persistent set of static
// branches; 32 mispredicts is far past noise for any real workload slice.
const H2PThreshold = 32

// ProviderStat is one sub-component's share of a window: how many committed
// conditional branches it provided the final direction for, and how many of
// those were mispredicted.  Accuracy is 1 - Mispredicts/Branches.
type ProviderStat struct {
	Name        string `json:"name"`
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts,omitempty"`
}

// Window is one sampling interval's counter deltas.  Cycle and instruction
// bounds are relative to the measurement start (the last stats reset), so a
// warmed-up run's first window starts at zero.  Windows are contiguous:
// window i+1 starts where window i ended.
type Window struct {
	Index      int    `json:"index"`
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	StartInst  uint64 `json:"start_inst"`
	EndInst    uint64 `json:"end_inst"`

	Branches       uint64 `json:"branches"`        // committed conditional branches
	Mispredicts    uint64 `json:"mispredicts"`     // all mispredicted CFIs
	DirMispredicts uint64 `json:"dir_mispredicts"` // wrong-direction subset
	TgtMispredicts uint64 `json:"tgt_mispredicts"` // wrong-target subset
	BTBMisses      uint64 `json:"btb_misses"`
	RASEvents      uint64 `json:"ras_events"` // return-address-stack pushes and pops
	FetchBubbles   uint64 `json:"fetch_bubbles"`
	Redirects      uint64 `json:"redirects"`       // frontend redirect flushes
	HistoryRepairs uint64 `json:"history_repairs"` // GHR repair events
	FetchReplays   uint64 `json:"fetch_replays"`
	Overrides      uint64 `json:"overrides"` // deeper-stage re-accepts (override rate numerator)
	Squashes       uint64 `json:"squashes"`  // history-file entries squashed
	H2PMispredicts uint64 `json:"h2p_mispredicts"`

	// Providers attributes the window's committed conditional branches to
	// the sub-component that provided the final direction, sorted by name.
	Providers []ProviderStat `json:"providers,omitempty"`
}

// Insts returns the committed instructions in the window.
func (w *Window) Insts() uint64 { return w.EndInst - w.StartInst }

// Cycles returns the cycles the window spans.
func (w *Window) Cycles() uint64 { return w.EndCycle - w.StartCycle }

// IPC returns the window's instructions per cycle.
func (w *Window) IPC() float64 {
	if w.Cycles() == 0 {
		return 0
	}
	return float64(w.Insts()) / float64(w.Cycles())
}

// MPKI returns the window's mispredicts per thousand instructions.
func (w *Window) MPKI() float64 {
	if w.Insts() == 0 {
		return 0
	}
	return float64(w.Mispredicts) / float64(w.Insts()) * 1000
}

// Set is one run's complete interval telemetry: the ordered windows, the
// sampling configuration, and the content hash of the CBRAIVL1 encoding.
type Set struct {
	// IntervalInsts is the window size the run sampled at.
	IntervalInsts uint64 `json:"interval_insts"`
	// Dropped counts windows overwritten when the ring filled; the kept
	// windows are the newest len(Windows) (indices still name their true
	// position in the run).
	Dropped uint64 `json:"dropped,omitempty"`
	// Windows are the closed sampling intervals, oldest first.
	Windows []Window `json:"windows"`
	// Hash is "sha256:<hex>" over the set's CBRAIVL1 encoding — byte-stable
	// across runner parallelism and local/remote backends, because window
	// boundaries are pure functions of the deterministic simulation.
	Hash string `json:"hash,omitempty"`
}

// Spark renders vs as a unicode sparkline of at most width characters,
// downsampling by averaging equal buckets when len(vs) > width.  An empty
// input renders empty; a flat series renders at the lowest glyph.
func Spark(vs []float64, width int) string {
	if len(vs) == 0 || width <= 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	if len(vs) > width {
		buckets := make([]float64, width)
		for i := range buckets {
			lo, hi := i*len(vs)/width, (i+1)*len(vs)/width
			if hi == lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range vs[lo:hi] {
				sum += v
			}
			buckets[i] = sum / float64(hi-lo)
		}
		vs = buckets
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		min, max = math.Min(min, v), math.Max(max, v)
	}
	out := make([]rune, len(vs))
	for i, v := range vs {
		g := 0
		if max > min {
			g = int((v - min) / (max - min) * float64(len(glyphs)-1))
		}
		out[i] = glyphs[g]
	}
	return string(out)
}
