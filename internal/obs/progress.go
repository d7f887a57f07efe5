package obs

// Run phases and progress snapshots: the vocabulary of a run's live
// progress, published by its interval.Recorder and decoded by clients of the
// serving stack's GET /v1/runs/{id}/progress stream.

// Run phases, in execution order.  Queued is the zero value so a freshly
// allocated recorder reports it without a store.
type RunPhase uint32

const (
	PhaseQueued RunPhase = iota
	PhaseCanonicalize
	PhaseCompose
	PhaseWorkload
	PhaseWarmup
	PhaseSimulate
	PhaseDone
	PhaseFailed
)

// String returns the lower-case phase name used in progress events and on
// /statusz.
func (p RunPhase) String() string {
	switch p {
	case PhaseQueued:
		return "queued"
	case PhaseCanonicalize:
		return "canonicalize"
	case PhaseCompose:
		return "compose"
	case PhaseWorkload:
		return "workload"
	case PhaseWarmup:
		return "warmup"
	case PhaseSimulate:
		return "simulate"
	case PhaseDone:
		return "done"
	case PhaseFailed:
		return "failed"
	}
	return "unknown"
}

// Terminal reports whether the phase is an end state.
func (p RunPhase) Terminal() bool { return p == PhaseDone || p == PhaseFailed }

// ProgressSnapshot is one point-in-time read of a run's progress.
type ProgressSnapshot struct {
	Phase       string  `json:"phase"`
	Cycles      uint64  `json:"cycles"`
	Insts       uint64  `json:"insts"`
	TargetInsts uint64  `json:"target_insts,omitempty"`
	InstsPerSec float64 `json:"insts_per_sec"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	QueuePos    int     `json:"queue_pos,omitempty"`
	Done        bool    `json:"done"`
}
