package obs

// Run phases: the vocabulary of a run's live progress, published by its
// interval.Recorder in the frames of the serving stack's
// GET /v1/runs/{id}/progress stream.

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
