package interval

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/obs"
	"cobra/internal/stats"
)

// ringCap bounds the window ring.  At the default 100k-inst window it covers
// a 409.6M-instruction measured region before the oldest windows start
// dropping — far past every paper budget — while bounding the recorder's
// footprint.  The ring grows by append as windows close, so a short run
// pays only for the windows it records.
const ringCap = 4096

// snap is the counter snapshot a window's deltas are taken against: the
// cumulative stats fields at the previous window boundary, plus the three
// pipeline counters the core passes alongside (they live outside stats.Sim
// and never reset at warmup).
type snap struct {
	branches, mispredicts, dirMisp, tgtMisp uint64
	btbMisses, rasEvents, fetchBubbles      uint64
	redirects, fetchReplays                 uint64
	overrides, squashes, repairs            uint64
}

// Recorder is the one telemetry sink of a run.  The core feeds it on its
// 8192-cycle flush (Tick), at the warmup boundary (Rebase) and at the end of
// the run (Finish), and every number the run publishes is read from its
// state: the live progress totals and phase (Snap, behind the SSE stream and
// /statusz), the cycle/instruction deltas forwarded to the batch
// obs.Metrics (Prometheus), and the windowed counter deltas (Set, behind
// .ivl files and the result's interval digest).
//
// Progress totals share stats.Sim's base: they count from the last Rebase
// (from 0 before any), so the totals published by Finish equal the result's
// Cycles and Instructions.  The Prometheus counters are cumulative over
// warmup and measurement alike.
//
// It is a single-writer structure: the simulation goroutine calls Tick,
// Mispredict, Rebase, and Finish; concurrent readers use Snap and Set, which
// read atomics and lock only against window closes — never against the
// fast path of Tick, which publishes two atomics and makes one comparison.
//
// Steady state allocates nothing: windows close into a ring that grows to
// at most ringCap slots and then wraps, reusing each slot's Providers slice, the provider name table stops
// growing once every sub-component has predicted, and the H2P map stops
// growing once the program's branch PCs have all mispredicted at least once.
// With windows off (a zero window size) there is no ring and no H2P map.
type Recorder struct {
	every uint64       // window size in committed instructions (0 = windows off)
	met   *obs.Metrics // batch sink fed cycle/instruction deltas (nil = none)

	// Live progress, read concurrently by Snap.  startNS is the wall clock
	// at the first phase transition out of queued (0 while still queued).
	phase   atomic.Uint32
	cycles  atomic.Uint64
	insts   atomic.Uint64
	target  atomic.Uint64 // instruction budget of the current phase (0 = unknown)
	startNS atomic.Int64

	// The absolute core cycle and the committed instructions of the current
	// slice already forwarded to met.
	metCycles, metInsts uint64

	mu      sync.Mutex // guards ring/start/count/dropped (close vs. Snap/Set)
	ring    []Window
	start   int // ring index of the oldest window
	count   int
	dropped uint64

	nextIndex    int    // global index of the next window to close
	nextBoundary uint64 // instruction count that closes the current window
	cycleBase    uint64 // absolute cycle at measurement start
	curStartCyc  uint64 // relative cycle the open window started at
	curStartInst uint64
	prev         snap

	// Provider attribution: names insertion-sorted on first appearance with
	// parallel previous-cumulative arrays, so window emission order is the
	// sorted order and map-iteration nondeterminism never reaches the output.
	provNames []string
	prevHits  []uint64
	prevMiss  []uint64

	// H2P tracking: cumulative per-PC mispredict counts (persists across
	// Rebase so the set warms during the warmup slice), and the open
	// window's in-set mispredict count.
	h2p       map[uint64]uint32
	windowH2P uint64
}

// NewRecorder returns a recorder in PhaseQueued closing one window every
// `every` committed instructions; every == 0 turns windows off, leaving the
// progress totals and the metrics forwarding.  met, when non-nil, receives
// the run's cycle and instruction deltas.
func NewRecorder(every uint64, met *obs.Metrics) *Recorder {
	r := &Recorder{every: every, met: met}
	if every > 0 {
		r.h2p = make(map[uint64]uint32, 1024)
	}
	r.nextBoundary = r.firstBoundary()
	return r
}

// firstBoundary is the instruction count that closes a slice's first
// window: never, with windows off.
func (r *Recorder) firstBoundary() uint64 {
	if r.every == 0 {
		return math.MaxUint64
	}
	return r.every
}

// IntervalInsts returns the configured window size (0 = windows off).
func (r *Recorder) IntervalInsts() uint64 { return r.every }

// SetPhase publishes a phase transition (and starts the rate clock on the
// first transition out of queued).
func (r *Recorder) SetPhase(ph obs.RunPhase) {
	if ph != obs.PhaseQueued && r.startNS.Load() == 0 {
		r.startNS.CompareAndSwap(0, time.Now().UnixNano())
	}
	r.phase.Store(uint32(ph))
}

// SetTarget publishes the committed-instruction budget of the current phase
// (warmup steps or simulate max), so readers can render completion percent.
func (r *Recorder) SetTarget(insts uint64) { r.target.Store(insts) }

// Progress is one point-in-time read of a run — one frame of cobra-serve's
// GET /v1/runs/{id}/progress stream and one row of /statusz: its progress
// totals, plus the most recently closed window while windows are on.
type Progress struct {
	Digest      string  `json:"digest"`
	Status      string  `json:"status"` // queued, running, done, failed
	Phase       string  `json:"phase"`
	Cycles      uint64  `json:"cycles"`
	Insts       uint64  `json:"insts"`
	TargetInsts uint64  `json:"target_insts,omitempty"`
	InstsPerSec float64 `json:"insts_per_sec"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	QueuePos    int     `json:"queue_pos,omitempty"`
	Done        bool    `json:"done"`
	Window      *Window `json:"window,omitempty"`
}

// Snap reads the run's progress.  Safe to call concurrently with the
// simulation; Digest, Status and QueuePos are the caller's to fill (the
// recorder knows neither the run's identity nor its neighbours in a queue).
func (r *Recorder) Snap() Progress {
	ph := obs.RunPhase(r.phase.Load())
	p := Progress{
		Phase:       ph.String(),
		Cycles:      r.cycles.Load(),
		Insts:       r.insts.Load(),
		TargetInsts: r.target.Load(),
		Done:        ph.Terminal(),
	}
	if start := r.startNS.Load(); start != 0 {
		elapsed := time.Since(time.Unix(0, start))
		p.ElapsedMS = elapsed.Milliseconds()
		if sec := elapsed.Seconds(); sec > 0 {
			p.InstsPerSec = float64(p.Insts) / sec
		}
	}
	// The latest closed window, deep-copied so the caller never aliases
	// ring storage.
	r.mu.Lock()
	if r.count > 0 {
		w := r.ring[(r.start+r.count-1)%len(r.ring)]
		w.Providers = append([]ProviderStat(nil), w.Providers...)
		p.Window = &w
	}
	r.mu.Unlock()
	return p
}

// publish stores the run's totals for Snap and forwards the cycles and
// instructions not yet reported to the batch metrics.
func (r *Recorder) publish(cycle uint64, s *stats.Sim) {
	r.cycles.Store(cycle - r.cycleBase)
	r.insts.Store(s.Instructions)
	if r.met != nil {
		r.met.AddCycles(cycle - r.metCycles)
		r.met.AddInsts(s.Instructions - r.metInsts)
		r.metCycles, r.metInsts = cycle, s.Instructions
	}
}

// Mispredict records one committed-branch mispredict at pc for H2P-set
// tracking.  Called from the core's commit stage; lock-free because only the
// simulation goroutine touches the map and the open-window counter.
func (r *Recorder) Mispredict(pc uint64) {
	if r.h2p == nil {
		return // windows off
	}
	n := r.h2p[pc] + 1
	r.h2p[pc] = n
	if n >= H2PThreshold {
		r.windowH2P++
	}
}

// Tick is the sampling hook, called from the core's periodic telemetry
// flush with the absolute core cycle.  It publishes the totals, and closes
// the open window once its instruction boundary is reached.
func (r *Recorder) Tick(cycle uint64, s *stats.Sim, overrides, squashes, repairs uint64) {
	r.publish(cycle, s)
	if s.Instructions < r.nextBoundary {
		return
	}
	r.close(cycle, s, overrides, squashes, repairs)
	r.nextBoundary = (s.Instructions/r.every + 1) * r.every
}

// close seals the open window at the current counter values.  Window ends
// are quantized to the caller's flush cadence: the window closes at the
// first tick at-or-past the instruction boundary, and the next one opens
// exactly where it ended, so windows tile the measured region.
func (r *Recorder) close(cycle uint64, s *stats.Sim, overrides, squashes, repairs uint64) {
	r.syncProviders(s)
	now := snap{
		branches: s.Branches, mispredicts: s.Mispredicts,
		dirMisp: s.DirMispredicts, tgtMisp: s.TgtMispredicts,
		btbMisses: s.BTBMisses, rasEvents: s.RASEvents,
		fetchBubbles: s.FetchBubbles, redirects: s.RedirectFlushes,
		fetchReplays: s.FetchReplays,
		overrides:    overrides, squashes: squashes, repairs: repairs,
	}

	// The ring grows until it holds ringCap windows and only then wraps, so
	// start stays 0 while len(r.ring) < ringCap.
	r.mu.Lock()
	var w *Window
	switch {
	case r.count == ringCap:
		w = &r.ring[r.start]
		r.start = (r.start + 1) % len(r.ring)
		r.dropped++
	case r.count == len(r.ring):
		r.ring = append(r.ring, Window{})
		w = &r.ring[r.count]
		r.count++
	default:
		w = &r.ring[(r.start+r.count)%len(r.ring)]
		r.count++
	}
	prov := w.Providers[:0] // reuse the slot's backing array
	*w = Window{
		Index:      r.nextIndex,
		StartCycle: r.curStartCyc, EndCycle: cycle - r.cycleBase,
		StartInst: r.curStartInst, EndInst: s.Instructions,

		Branches:       now.branches - r.prev.branches,
		Mispredicts:    now.mispredicts - r.prev.mispredicts,
		DirMispredicts: now.dirMisp - r.prev.dirMisp,
		TgtMispredicts: now.tgtMisp - r.prev.tgtMisp,
		BTBMisses:      now.btbMisses - r.prev.btbMisses,
		RASEvents:      now.rasEvents - r.prev.rasEvents,
		FetchBubbles:   now.fetchBubbles - r.prev.fetchBubbles,
		Redirects:      now.redirects - r.prev.redirects,
		HistoryRepairs: now.repairs - r.prev.repairs,
		FetchReplays:   now.fetchReplays - r.prev.fetchReplays,
		Overrides:      now.overrides - r.prev.overrides,
		Squashes:       now.squashes - r.prev.squashes,
		H2PMispredicts: r.windowH2P,
	}
	for i, name := range r.provNames {
		hits, miss := s.ProviderHits[name], s.ProviderMisses[name]
		if dh, dm := hits-r.prevHits[i], miss-r.prevMiss[i]; dh|dm != 0 {
			prov = append(prov, ProviderStat{Name: name, Branches: dh, Mispredicts: dm})
		}
		r.prevHits[i], r.prevMiss[i] = hits, miss
	}
	w.Providers = prov
	r.mu.Unlock()

	r.nextIndex++
	r.curStartCyc = w.EndCycle
	r.curStartInst = s.Instructions
	r.prev = now
	r.windowH2P = 0
}

// syncProviders inserts any provider names seen since the last close into
// the sorted name table (with zeroed previous-cumulative slots).  The table
// stabilizes after every sub-component has predicted once, so steady state
// does not allocate here.
func (r *Recorder) syncProviders(s *stats.Sim) {
	if len(s.ProviderHits) == len(r.provNames) {
		return
	}
	for name := range s.ProviderHits {
		i := sort.SearchStrings(r.provNames, name)
		if i < len(r.provNames) && r.provNames[i] == name {
			continue
		}
		r.provNames = append(r.provNames, "")
		copy(r.provNames[i+1:], r.provNames[i:])
		r.provNames[i] = name
		r.prevHits = append(r.prevHits, 0)
		copy(r.prevHits[i+1:], r.prevHits[i:])
		r.prevHits[i] = 0
		r.prevMiss = append(r.prevMiss, 0)
		copy(r.prevMiss[i+1:], r.prevMiss[i:])
		r.prevMiss[i] = 0
	}
}

// Rebase is the interval-level analogue of Core.ResetStats, called with the
// counters of the slice about to be discarded: their last deltas reach the
// batch metrics, then windows, numbering and the progress totals restart at
// the current cycle, so the warmup slice produces no windows and measured
// windows start at cycle/instruction zero.  The H2P map deliberately
// survives: the hard-to-predict set warms alongside the predictors.  The
// three pipeline counters are snapshotted at their current absolute values
// because, unlike stats.Sim, they do not reset at warmup.
func (r *Recorder) Rebase(cycle uint64, s *stats.Sim, overrides, squashes, repairs uint64) {
	r.publish(cycle, s)
	r.metInsts = 0
	r.rebase(cycle, overrides, squashes, repairs)
}

func (r *Recorder) rebase(cycle uint64, overrides, squashes, repairs uint64) {
	r.mu.Lock()
	r.start, r.count, r.dropped = 0, 0, 0
	r.mu.Unlock()
	r.cycles.Store(0)
	r.insts.Store(0)
	r.nextIndex = 0
	r.nextBoundary = r.firstBoundary()
	r.cycleBase = cycle
	r.curStartCyc, r.curStartInst = 0, 0
	r.prev = snap{overrides: overrides, squashes: squashes, repairs: repairs}
	for i := range r.prevHits {
		r.prevHits[i], r.prevMiss[i] = 0, 0
	}
	r.windowH2P = 0
}

// Reset readies the recorder for a fresh core: windows, totals and the
// metrics bookkeeping restart at cycle zero and, unlike Rebase, the H2P map
// is cleared too.  The phase and rate clock describe the job rather than the
// attempt and are kept.  Exec resets an attached recorder before wiring it
// to a new core, so a retried attempt records exactly what a first attempt
// would.
func (r *Recorder) Reset() {
	r.metCycles, r.metInsts = 0, 0
	r.rebase(0, 0, 0, 0)
	clear(r.h2p)
}

// Finish publishes the run's final totals and closes the trailing partial
// window, if any instructions committed into it.  Called once, after the run
// loop exits.
func (r *Recorder) Finish(cycle uint64, s *stats.Sim, overrides, squashes, repairs uint64) {
	r.publish(cycle, s)
	if r.every > 0 && s.Instructions > r.curStartInst {
		r.close(cycle, s, overrides, squashes, repairs)
	}
}

// Set snapshots the recorded windows as a self-contained Set with its
// content hash computed.
func (r *Recorder) Set() *Set {
	r.mu.Lock()
	s := &Set{IntervalInsts: r.every, Dropped: r.dropped, Windows: make([]Window, r.count)}
	for i := 0; i < r.count; i++ {
		w := r.ring[(r.start+i)%len(r.ring)]
		w.Providers = append([]ProviderStat(nil), w.Providers...)
		s.Windows[i] = w
	}
	r.mu.Unlock()
	s.Hash = s.ContentHash()
	return s
}

// Reconcile checks the recorder against the final counters of the run it
// watched, after Finish, and returns the first disagreement: the published
// progress totals must equal s's cycles and instructions, and — with windows
// on and none dropped — the windows must tile [0, s.Instructions] ending at
// s.Cycles, and every windowed counter with a stats.Sim counterpart, the
// per-provider deltas included, must sum to that counterpart.  The core runs
// it in paranoid mode; it allocates only to report a mismatch.
func (r *Recorder) Reconcile(s *stats.Sim) error {
	if c, n := r.cycles.Load(), r.insts.Load(); c != s.Cycles || n != s.Instructions {
		return fmt.Errorf("progress totals %d cycles / %d insts, result %d / %d",
			c, n, s.Cycles, s.Instructions)
	}
	if r.every == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dropped > 0 {
		return nil // the oldest windows are gone; their deltas cannot be summed
	}
	var endInst, endCycle uint64
	var sum snap
	for i := 0; i < r.count; i++ {
		w := &r.ring[(r.start+i)%len(r.ring)]
		if w.Index != i || w.StartInst != endInst || w.StartCycle != endCycle {
			return fmt.Errorf("window %d (index %d) starts at inst %d cycle %d, predecessor ends at %d / %d",
				i, w.Index, w.StartInst, w.StartCycle, endInst, endCycle)
		}
		endInst, endCycle = w.EndInst, w.EndCycle
		sum.branches += w.Branches
		sum.mispredicts += w.Mispredicts
		sum.dirMisp += w.DirMispredicts
		sum.tgtMisp += w.TgtMispredicts
		sum.btbMisses += w.BTBMisses
		sum.rasEvents += w.RASEvents
		sum.fetchBubbles += w.FetchBubbles
		sum.redirects += w.Redirects
		sum.fetchReplays += w.FetchReplays
		sum.repairs += w.HistoryRepairs
	}
	if endInst != s.Instructions || endCycle != s.Cycles {
		return fmt.Errorf("%d windows end at inst %d cycle %d, result %d / %d",
			r.count, endInst, endCycle, s.Instructions, s.Cycles)
	}
	want := snap{
		branches: s.Branches, mispredicts: s.Mispredicts,
		dirMisp: s.DirMispredicts, tgtMisp: s.TgtMispredicts,
		btbMisses: s.BTBMisses, rasEvents: s.RASEvents, fetchBubbles: s.FetchBubbles,
		redirects: s.RedirectFlushes, fetchReplays: s.FetchReplays, repairs: s.HistoryRepairs,
	}
	if sum != want {
		return fmt.Errorf("%d windows sum to %+v, result has %+v", r.count, sum, want)
	}
	for name := range s.ProviderHits {
		if i := sort.SearchStrings(r.provNames, name); i == len(r.provNames) || r.provNames[i] != name {
			return fmt.Errorf("provider %s is missing from the windows", name)
		}
	}
	for _, name := range r.provNames {
		var hits, miss uint64
		for i := 0; i < r.count; i++ {
			for _, p := range r.ring[(r.start+i)%len(r.ring)].Providers {
				if p.Name == name {
					hits += p.Branches
					miss += p.Mispredicts
				}
			}
		}
		if hits != s.ProviderHits[name] || miss != s.ProviderMisses[name] {
			return fmt.Errorf("provider %s windows sum to %d hits / %d misses, result %d / %d",
				name, hits, miss, s.ProviderHits[name], s.ProviderMisses[name])
		}
	}
	return nil
}
