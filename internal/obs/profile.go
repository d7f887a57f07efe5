package obs

import (
	"fmt"
	"sort"

	"cobra/internal/stats"
)

// BranchStat accumulates per-PC prediction outcomes for one static
// control-flow instruction.
type BranchStat struct {
	PC    uint64
	Kind  string // "branch", "jump", or "indirect" (incl. returns)
	Execs uint64 // committed executions
	Taken uint64 // committed taken outcomes
	Misp  uint64 // committed mispredictions

	// WrongBy counts, per sub-component, how often that component supplied
	// the final (wrong) prediction on this PC's mispredicts; RightBy counts
	// how often an overridden component's own opinion was actually correct
	// on those same mispredicts — the composition-debugging signal: a large
	// RightBy entry means the topology is overriding the wrong way.
	WrongBy map[string]uint64
	RightBy map[string]uint64
}

// MispRate returns the per-execution misprediction rate.
func (b *BranchStat) MispRate() float64 {
	if b.Execs == 0 {
		return 0
	}
	return float64(b.Misp) / float64(b.Execs)
}

func topOf(m map[string]uint64) string {
	best, name := uint64(0), "-"
	for _, k := range stats.SortedKeys(m) {
		if m[k] > best {
			best, name = m[k], k
		}
	}
	if best == 0 {
		return "-"
	}
	return fmt.Sprintf("%s (%d)", name, best)
}

// BranchProfile aggregates per-PC misprediction attribution across one
// simulation — the hard-to-predict (H2P) branch finder.  It is fed from the
// core's commit stage, so every count refers to architecturally committed
// control flow, and the per-PC mispredict counts sum exactly to the run's
// stats.Sim.Mispredicts counter.
//
// A profile is not safe for concurrent use; give each parallel runner job
// its own (a spec's Observe.Attribution does).
type BranchProfile struct {
	byPC map[uint64]*BranchStat

	execs uint64
	misp  uint64
}

// NewBranchProfile returns an empty profile.
func NewBranchProfile() *BranchProfile {
	return &BranchProfile{byPC: make(map[uint64]*BranchStat)}
}

// Record accumulates one committed control-flow instruction: its PC, kind
// label, resolved direction, whether the final pipeline prediction was wrong,
// the sub-component that provided the final prediction, and (on mispredicts,
// when opinion tracking is enabled) every sub-component's own direction
// opinion at predict time.
func (bp *BranchProfile) Record(pc uint64, kind string, taken, misp bool, provider string, ops []Opinion) {
	st := bp.byPC[pc]
	if st == nil {
		st = &BranchStat{PC: pc, Kind: kind}
		bp.byPC[pc] = st
	}
	st.Execs++
	bp.execs++
	if taken {
		st.Taken++
	}
	if !misp {
		return
	}
	st.Misp++
	bp.misp++
	if st.WrongBy == nil {
		st.WrongBy = make(map[string]uint64)
	}
	st.WrongBy[provider]++
	for _, op := range ops {
		if op.Comp == provider || !op.DirValid || op.Taken != taken {
			continue
		}
		if st.RightBy == nil {
			st.RightBy = make(map[string]uint64)
		}
		st.RightBy[op.Comp]++
	}
}

// TotalExecs returns the committed control-flow instructions recorded.
func (bp *BranchProfile) TotalExecs() uint64 { return bp.execs }

// TotalMispredicts returns the sum of per-PC mispredict counts; by
// construction it equals the run's stats.Sim.Mispredicts.
func (bp *BranchProfile) TotalMispredicts() uint64 { return bp.misp }

// PCs returns how many distinct control-flow PCs committed.
func (bp *BranchProfile) PCs() int { return len(bp.byPC) }

// Top returns the n hardest branches, descending by mispredict count (ties
// broken by PC for determinism).  n <= 0 returns all.
func (bp *BranchProfile) Top(n int) []*BranchStat {
	out := make([]*BranchStat, 0, len(bp.byPC))
	for _, st := range bp.byPC {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Misp != out[j].Misp {
			return out[i].Misp > out[j].Misp
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// ShareTop returns the fraction of all mispredicts contributed by the n
// hardest branches.
func (bp *BranchProfile) ShareTop(n int) float64 {
	if bp.misp == 0 {
		return 0
	}
	var sum uint64
	for _, st := range bp.Top(n) {
		sum += st.Misp
	}
	return float64(sum) / float64(bp.misp)
}

// Table renders the H2P report: the top n branches by misprediction count
// with provider attribution, a cumulative-share column, and a closing
// all-PCs row whose mispredict total equals stats.Sim.Mispredicts.
func (bp *BranchProfile) Table(n int) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("H2P — top %d hard-to-predict branches (of %d PCs, %d mispredicts)",
			n, bp.PCs(), bp.misp),
		Headers: []string{"rank", "pc", "kind", "execs", "misp", "rate", "share", "cum", "wrong provider", "overridden right"},
	}
	var cum uint64
	for i, st := range bp.Top(n) {
		cum += st.Misp
		share, cumShare := 0.0, 0.0
		if bp.misp > 0 {
			share = float64(st.Misp) / float64(bp.misp) * 100
			cumShare = float64(cum) / float64(bp.misp) * 100
		}
		t.AddRow(
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("0x%x", st.PC),
			st.Kind,
			fmt.Sprintf("%d", st.Execs),
			fmt.Sprintf("%d", st.Misp),
			fmt.Sprintf("%.1f%%", st.MispRate()*100),
			fmt.Sprintf("%.1f%%", share),
			fmt.Sprintf("%.1f%%", cumShare),
			topOf(st.WrongBy),
			topOf(st.RightBy),
		)
	}
	t.AddRow("all", fmt.Sprintf("%d PCs", bp.PCs()), "",
		fmt.Sprintf("%d", bp.execs), fmt.Sprintf("%d", bp.misp), "", "100.0%", "", "", "")
	return t
}
