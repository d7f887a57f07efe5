package bench

import "fmt"

// CompareOptions tune the regression gates.
type CompareOptions struct {
	// AllocTol is the fractional headroom for allocation-rate metrics
	// (default 0.10): new may exceed old by this fraction plus a small
	// absolute slack before it counts as a regression.  Allocation counts
	// are deterministic for a fixed Go version but drift slightly across
	// runtime releases, so an exact gate would break on toolchain bumps.
	AllocTol float64
	// TimingTol, when > 0, additionally gates the machine-dependent
	// throughput metrics: new insts/sec may fall below old by at most this
	// fraction.  Leave 0 (off) unless old and new ran on the same pinned
	// hardware — shared hosts show ±30% noise.
	TimingTol float64
}

func (o CompareOptions) allocTol() float64 {
	if o.AllocTol > 0 {
		return o.AllocTol
	}
	return 0.10
}

// Compare diffs a new report against an old (typically committed) one and
// returns the list of regressions, empty when the new report is acceptable.
//
// Gates, from hardest to softest:
//   - mode/schema: quick and full reports are incomparable;
//   - determinism: committed instructions, simulated cycles, and mispredict
//     counts must match the old report EXACTLY for every scenario both
//     reports contain (simulated quantities are deterministic per spec
//     digest, machine-independently);
//   - allocations: per-scenario mallocs-per-kilo-instruction and the
//     per-design hot-loop budgets may not grow beyond AllocTol headroom; the
//     steady-state hot-loop count may not grow at all;
//   - timing (only when TimingTol > 0): insts/sec may not drop by more than
//     TimingTol.
//
// A scenario present in old but absent from new is a regression (coverage
// loss); a new scenario absent from old is fine.
func Compare(old, new *Report, opt CompareOptions) []string {
	var regs []string
	reg := func(format string, args ...any) { regs = append(regs, fmt.Sprintf(format, args...)) }

	if old.Quick != new.Quick {
		reg("mode mismatch: old quick=%v, new quick=%v (reports are incomparable)", old.Quick, new.Quick)
		return regs
	}

	newSc := map[string]ScenarioResult{}
	for _, s := range new.Scenarios {
		newSc[s.Name] = s
	}
	allocTol := opt.allocTol()
	for _, o := range old.Scenarios {
		n, ok := newSc[o.Name]
		if !ok {
			reg("scenario %s: present in old report, missing from new", o.Name)
			continue
		}
		if n.Insts != o.Insts || n.Cycles != o.Cycles || n.Mispredicts != o.Mispredicts {
			reg("scenario %s: deterministic counters diverged: insts %d→%d, cycles %d→%d, mispredicts %d→%d"+
				" (simulated behavior changed; if intended, regenerate the committed report)",
				o.Name, o.Insts, n.Insts, o.Cycles, n.Cycles, o.Mispredicts, n.Mispredicts)
		}
		// Absolute slack of 0.5 allocs/kinst keeps near-zero baselines from
		// tripping on a single stray allocation.
		if limit := o.MallocsPerKInst*(1+allocTol) + 0.5; n.MallocsPerKInst > limit {
			reg("scenario %s: allocation rate regressed: %.2f → %.2f mallocs/kinst (limit %.2f)",
				o.Name, o.MallocsPerKInst, n.MallocsPerKInst, limit)
		}
		if opt.TimingTol > 0 && n.InstsPerSec < o.InstsPerSec*(1-opt.TimingTol) {
			reg("scenario %s: throughput regressed: %.0f → %.0f insts/sec (tolerance %.0f%%)",
				o.Name, o.InstsPerSec, n.InstsPerSec, opt.TimingTol*100)
		}
	}

	newHL := map[string]HotLoopResult{}
	for _, h := range new.HotLoop {
		newHL[h.Design] = h
	}
	for _, o := range old.HotLoop {
		n, ok := newHL[o.Design]
		if !ok {
			reg("hot-loop %s: present in old report, missing from new", o.Design)
			continue
		}
		if n.SteadyAllocsPerOp > o.SteadyAllocsPerOp {
			reg("hot-loop %s: steady-state allocs/op regressed: %.2f → %.2f",
				o.Design, o.SteadyAllocsPerOp, n.SteadyAllocsPerOp)
		}
		if limit := float64(o.WarmupAllocs)*(1+allocTol) + 16; float64(n.WarmupAllocs) > limit {
			reg("hot-loop %s: warmup allocs regressed: %d → %d (limit %.0f)",
				o.Design, o.WarmupAllocs, n.WarmupAllocs, limit)
		}
		if limit := float64(o.ComposeAllocs)*(1+allocTol) + 16; float64(n.ComposeAllocs) > limit {
			reg("hot-loop %s: compose allocs regressed: %d → %d (limit %.0f)",
				o.Design, o.ComposeAllocs, n.ComposeAllocs, limit)
		}
	}
	return regs
}

// ScaledWallDeltas returns one line per scenario both reports contain: the
// median wall time old → new, raw and divided by each report's
// HostSlowdown, so a host that ran slower for one report does not read as a
// regression of the code.  It returns nil when either report lacks the
// factor.  The lines are informational; Compare gates timing only behind
// TimingTol.
func ScaledWallDeltas(old, new *Report) []string {
	if old.HostSlowdown <= 0 || new.HostSlowdown <= 0 {
		return nil
	}
	newSc := map[string]ScenarioResult{}
	for _, s := range new.Scenarios {
		newSc[s.Name] = s
	}
	var out []string
	for _, o := range old.Scenarios {
		n, ok := newSc[o.Name]
		if !ok || o.WallNSMedian <= 0 {
			continue
		}
		raw := float64(n.WallNSMedian) / float64(o.WallNSMedian)
		scaled := raw * old.HostSlowdown / new.HostSlowdown
		out = append(out, fmt.Sprintf("scenario %s: wall %.1f → %.1f ms (%+.1f%%), host-scaled %+.1f%% (host slowdown %.2f → %.2f)",
			o.Name, float64(o.WallNSMedian)/1e6, float64(n.WallNSMedian)/1e6, (raw-1)*100, (scaled-1)*100,
			old.HostSlowdown, new.HostSlowdown))
	}
	return out
}
