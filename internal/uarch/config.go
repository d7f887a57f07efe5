// Package uarch is the host-core model: a cycle-level superscalar
// out-of-order core in the image of the 4-wide BOOM configuration of
// Table II, with its fetch unit driven by a COBRA-composed predictor
// pipeline (§IV-C, Fig. 6).
//
// The frontend fetches along the *predicted* path from the static program
// image — including wrong paths, which speculatively update the history
// providers exactly as in hardware — while architectural truth comes from
// the program oracle.  The backend models decode/dispatch width, a ROB,
// per-class issue queues and function units, load/store queues, and a
// two-level data-cache hierarchy; branches resolve at execute, triggering
// the composed pipeline's repair machinery.
//
// Substitutions versus the paper's FPGA-simulated BOOM (documented in
// DESIGN.md): instruction supply is modelled with a perfect I-cache (the
// paper's frontend includes a next-line prefetcher; branch-predictor
// comparisons are insensitive to this), and wrong-path branches do not
// themselves redirect fetch (they train and pollute, but their resolution
// is unknowable without wrong-path semantics).
package uarch

import (
	"fmt"

	"cobra/internal/bitutil"
	"cobra/internal/pred"
)

// Config describes the core (defaults reproduce Table II).
type Config struct {
	Fetch pred.Config

	DecodeWidth int
	CommitWidth int
	ROBEntries  int
	IQEntries   int // per issue queue (INT, MEM, FP)
	NumALU      int // INT issue width
	NumMem      int // MEM issue width
	NumFP       int // FP issue width
	LDQEntries  int
	STQEntries  int

	FetchBufferCap int // instructions buffered between fetch and decode
	RASEntries     int

	// RedirectLatency is the extra delay between a backend branch
	// resolution and the first corrected fetch.
	RedirectLatency int

	// Execution latencies.
	ALULat, MulLat, FPLat int
	L1Lat, L2Lat, MemLat  int

	// Data cache geometry.
	LineBytes      int
	L1Sets, L1Ways int
	L2Sets, L2Ways int

	// SerializedFetch ends every fetch packet at its first control-flow
	// instruction, disabling superscalar prediction (§II-A: -15% IPC on
	// Dhrystone in a 4-wide BOOM).
	SerializedFetch bool

	// SFB enables the short-forwards-branch predication of §VI-C: forward
	// conditional branches spanning at most SFBMaxDist instructions with no
	// intervening CFI are decoded into set-flag/conditional-execute ops and
	// removed from the prediction problem.
	SFB        bool
	SFBMaxDist int

	// InOrderIssue restricts issue to program order (stall at the first
	// not-ready instruction), turning the backend into an in-order
	// pipeline.  Together with width-1 parameters this models a simple
	// scalar core — the second host-processor integration demonstrating
	// §IV-C's claim that a composed pipeline drops into any frontend.
	InOrderIssue bool

	// WatchdogCycles aborts the simulation if no instruction commits for
	// this many cycles (model-bug guard).
	WatchdogCycles uint64
}

// InOrderConfig models a simple scalar in-order core (Rocket-class): 1-wide
// decode/commit, in-order single issue, small buffers — a second, very
// different host for the same composed predictor pipelines (§IV-C).
func InOrderConfig() Config {
	c := DefaultConfig()
	c.DecodeWidth = 1
	c.CommitWidth = 1
	c.ROBEntries = 8 // a short completion buffer, not a real ROB
	c.IQEntries = 4
	c.NumALU = 1
	c.NumMem = 1
	c.NumFP = 1
	c.LDQEntries = 4
	c.STQEntries = 4
	c.FetchBufferCap = 8
	c.InOrderIssue = true
	return c
}

// DefaultConfig reproduces the evaluated BOOM configuration (Table II):
// 16-byte fetch, 4-wide decode/commit, 128-entry ROB, 3x32-entry issue
// queues, 8 pipelines (4 ALU, 2 MEM, 2 FP), 32-entry LDQ/STQ, 32 KB 8-way
// L1D, 512 KB 8-way L2, and a flat main-memory latency standing in for the
// FASED LLC+DRAM model.
func DefaultConfig() Config {
	return Config{
		Fetch:           pred.DefaultConfig(),
		DecodeWidth:     4,
		CommitWidth:     4,
		ROBEntries:      128,
		IQEntries:       32,
		NumALU:          4,
		NumMem:          2,
		NumFP:           2,
		LDQEntries:      32,
		STQEntries:      32,
		FetchBufferCap:  16,
		RASEntries:      32,
		RedirectLatency: 2,
		ALULat:          1,
		MulLat:          3,
		FPLat:           4,
		L1Lat:           3,
		L2Lat:           14,
		MemLat:          80,
		LineBytes:       64,
		L1Sets:          64, // 64 sets * 8 ways * 64 B = 32 KB
		L1Ways:          8,
		L2Sets:          1024, // 1024 * 8 * 64 B = 512 KB
		L2Ways:          8,
		SFBMaxDist:      8,
		WatchdogCycles:  200000,
	}
}

// Validate reports whether the configuration describes a core that can run:
// every width, entry count and issue width positive, the fetch buffer able
// to hold a whole packet, non-negative latencies, power-of-two cache
// geometry, and an armed watchdog.  NewCore assumes all of these; a
// configuration that fails one deadlocks or panics mid-run instead.
func (c Config) Validate() error {
	if !c.Fetch.Valid() {
		return fmt.Errorf("uarch: fetch geometry %d x %d B is not a power of two",
			c.Fetch.FetchWidth, c.Fetch.InstBytes)
	}
	type field struct {
		name string
		v    int
	}
	check := func(ok func(int) bool, want string, fs ...field) error {
		for _, f := range fs {
			if !ok(f.v) {
				return fmt.Errorf("uarch: %s must be %s, got %d", f.name, want, f.v)
			}
		}
		return nil
	}
	if err := check(func(v int) bool { return v > 0 }, "positive",
		field{"DecodeWidth", c.DecodeWidth}, field{"CommitWidth", c.CommitWidth},
		field{"ROBEntries", c.ROBEntries}, field{"IQEntries", c.IQEntries},
		field{"NumALU", c.NumALU}, field{"NumMem", c.NumMem}, field{"NumFP", c.NumFP},
		field{"LDQEntries", c.LDQEntries}, field{"STQEntries", c.STQEntries},
		field{"RASEntries", c.RASEntries}, field{"L1Ways", c.L1Ways}, field{"L2Ways", c.L2Ways},
	); err != nil {
		return err
	}
	if err := check(func(v int) bool { return v >= 0 }, "non-negative",
		field{"RedirectLatency", c.RedirectLatency}, field{"ALULat", c.ALULat},
		field{"MulLat", c.MulLat}, field{"FPLat", c.FPLat}, field{"L1Lat", c.L1Lat},
		field{"L2Lat", c.L2Lat}, field{"MemLat", c.MemLat},
	); err != nil {
		return err
	}
	if err := check(bitutil.IsPow2, "a power of two",
		field{"LineBytes", c.LineBytes}, field{"L1Sets", c.L1Sets}, field{"L2Sets", c.L2Sets},
	); err != nil {
		return err
	}
	if c.FetchBufferCap < c.Fetch.FetchWidth {
		return fmt.Errorf("uarch: FetchBufferCap %d cannot hold a %d-instruction fetch packet",
			c.FetchBufferCap, c.Fetch.FetchWidth)
	}
	if c.WatchdogCycles == 0 {
		return fmt.Errorf("uarch: WatchdogCycles must be positive")
	}
	return nil
}
