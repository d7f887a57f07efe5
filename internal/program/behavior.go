package program

// State is the shared architectural execution state behaviours may consult:
// the committed branch-outcome history (for correlated branches), a
// deterministic PRNG (for biased-random branches), and the slot array that
// holds every stateful behaviour's per-execution counters.  Keeping those
// counters here — rather than inside the behaviour structs — is what makes a
// built Program immutable, so one cached instance can drive any number of
// concurrent simulations.
type State struct {
	rng    uint64   // xorshift64* state
	recent uint64   // last 64 committed conditional-branch outcomes, bit 0 newest
	slots  []uint64 // per-execution behaviour state, indexed by slot id
}

// NewState seeds the architectural state.
func NewState(seed uint64) *State {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &State{rng: seed}
}

// Rand returns the next deterministic pseudo-random 64-bit value.
func (s *State) Rand() uint64 {
	x := s.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rng = x
	return x * 0x2545F4914F6CDD1D
}

// Chance returns true with probability p (deterministically pseudo-random).
func (s *State) Chance(p float64) bool {
	return float64(s.Rand()>>11)/float64(1<<53) < p
}

// Record appends a committed conditional-branch outcome.
func (s *State) Record(taken bool) {
	s.recent <<= 1
	if taken {
		s.recent |= 1
	}
}

// Outcome returns the committed outcome depth branches ago (0 = the most
// recent).
func (s *State) Outcome(depth uint) bool {
	return s.recent>>depth&1 == 1
}

// slot returns the per-execution state cell for a behaviour, growing the
// array on first touch (behaviours used outside a sealed Program default to
// slot 0).
func (s *State) slot(id int) *uint64 {
	if id >= len(s.slots) {
		grown := make([]uint64, id+1)
		copy(grown, s.slots)
		s.slots = grown
	}
	return &s.slots[id]
}

// grow pre-sizes the slot array for a program's behaviours.
func (s *State) grow(n int) {
	if n > len(s.slots) {
		grown := make([]uint64, n)
		copy(grown, s.slots)
		s.slots = grown
	}
}

// slotted is implemented by behaviours whose per-execution state lives in a
// State slot.  Program.Validate assigns each such behaviour a distinct slot
// id (in PC order, so assignment is deterministic), after which the
// behaviour struct itself is never written again.  Id 0 is the unassigned
// sentinel: behaviours used standalone (outside a validated Program) all
// share slot 0.
type slotted interface {
	slotID() int
	setSlot(id int)
}

// slotRef embeds a State-slot id into a stateful behaviour.
type slotRef struct{ id int }

func (s *slotRef) slotID() int    { return s.id }
func (s *slotRef) setSlot(id int) { s.id = id }

// DirBehavior produces a branch's dynamic direction; Next is called once per
// architectural execution of the branch, in program order.
type DirBehavior interface {
	Next(st *State) bool
}

// TgtBehavior produces an indirect jump's dynamic target.
type TgtBehavior interface {
	NextTarget(st *State) uint64
}

// MemBehavior produces a memory instruction's effective address.
type MemBehavior interface {
	NextAddr(st *State) uint64
}

// SemBehavior executes an instruction's computational semantics when the
// architectural oracle reaches it (used by interpreted-ISA programs whose
// branch outcomes depend on real register/memory contents).
type SemBehavior interface {
	Exec(st *State)
}

// --- direction behaviours ---

// LoopDir is taken Trip-1 times then not-taken once, repeating — a
// fixed-trip-count loop back-edge, the loop predictor's home turf.
type LoopDir struct {
	slotRef
	Trip int
}

// Next implements DirBehavior.
func (l *LoopDir) Next(st *State) bool {
	i := st.slot(l.id)
	*i++
	if *i >= uint64(l.Trip) {
		*i = 0
		return false
	}
	return true
}

// PatternDir repeats a fixed direction pattern — learnable by any
// global-history predictor whose history covers the period.
type PatternDir struct {
	slotRef
	Bits []bool
}

// Next implements DirBehavior.
func (p *PatternDir) Next(st *State) bool {
	i := st.slot(p.id)
	b := p.Bits[*i]
	*i = (*i + 1) % uint64(len(p.Bits))
	return b
}

// BiasedDir is taken with i.i.d. probability P — the irreducible
// mispredict floor of data-dependent branches.
type BiasedDir struct {
	P float64
}

// Next implements DirBehavior.
func (b *BiasedDir) Next(st *State) bool { return st.Chance(b.P) }

// CorrDir correlates with the committed global outcome Depth branches ago
// (optionally inverted) — learnable by global-history predictors with
// sufficient history length, invisible to PC-indexed tables.
type CorrDir struct {
	Depth  uint
	Invert bool
	// Noise is the probability the correlation breaks (0 = pure).
	Noise float64
}

// Next implements DirBehavior.
func (c *CorrDir) Next(st *State) bool {
	out := st.Outcome(c.Depth) != c.Invert
	if c.Noise > 0 && st.Chance(c.Noise) {
		return !out
	}
	return out
}

// XorCorrDir is the XOR of two committed outcomes — needs genuinely
// pattern-capable predictors (perceptrons famously fail on XOR of
// positions they can only weigh linearly... TAGE learns it as context).
type XorCorrDir struct {
	D1, D2 uint
}

// Next implements DirBehavior.
func (x *XorCorrDir) Next(st *State) bool {
	return st.Outcome(x.D1) != st.Outcome(x.D2)
}

// LocalPeriodicDir is a branch whose own outcome history is periodic but
// whose phase is unrelated to global history — the local-history predictor's
// specialty (and a source of Tournament-vs-B2 differences).
type LocalPeriodicDir struct {
	slotRef
	Period int // taken except every Period-th execution
}

// Next implements DirBehavior.
func (l *LocalPeriodicDir) Next(st *State) bool {
	i := st.slot(l.id)
	*i++
	if *i >= uint64(l.Period) {
		*i = 0
		return false
	}
	return true
}

// AlternatingDir flips every execution (period-2 local pattern).
type AlternatingDir struct{ slotRef }

// Next implements DirBehavior.
func (a *AlternatingDir) Next(st *State) bool {
	i := st.slot(a.id)
	*i ^= 1
	return *i == 1
}

// --- target behaviours ---

// CycleTgt cycles through a fixed target list (a switch statement visiting
// cases round-robin).
type CycleTgt struct {
	slotRef
	Targets []uint64
}

// NextTarget implements TgtBehavior.
func (c *CycleTgt) NextTarget(st *State) uint64 {
	i := st.slot(c.id)
	t := c.Targets[*i]
	*i = (*i + 1) % uint64(len(c.Targets))
	return t
}

// WeightedTgt picks target 0 with probability P0, else uniformly among the
// rest (a virtual call with a dominant receiver).
type WeightedTgt struct {
	Targets []uint64
	P0      float64
}

// NextTarget implements TgtBehavior.
func (w *WeightedTgt) NextTarget(st *State) uint64 {
	if len(w.Targets) == 1 || st.Chance(w.P0) {
		return w.Targets[0]
	}
	rest := w.Targets[1:]
	return rest[st.Rand()%uint64(len(rest))]
}

// --- memory behaviours ---

// StrideMem walks Base..Base+Span with a fixed stride (streaming access;
// mostly cache hits after warmup).
type StrideMem struct {
	slotRef
	Base   uint64
	Stride uint64
	Span   uint64
}

// NextAddr implements MemBehavior.
func (m *StrideMem) NextAddr(st *State) uint64 {
	off := st.slot(m.id)
	a := m.Base + *off
	*off += m.Stride
	if m.Span > 0 && *off >= m.Span {
		*off = 0
	}
	return a
}

// RandMem touches uniformly random addresses in a working set of Size bytes
// (pointer chasing; miss rate set by Size vs cache capacity).
type RandMem struct {
	Base uint64
	Size uint64
}

// NextAddr implements MemBehavior.
func (m *RandMem) NextAddr(st *State) uint64 {
	if m.Size == 0 {
		return m.Base
	}
	return m.Base + st.Rand()%m.Size&^7
}
