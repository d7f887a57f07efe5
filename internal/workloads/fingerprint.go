package workloads

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"cobra/internal/isa"
)

// Fingerprints are memoized per (workload, instruction width): synthetic
// programs are themselves cached, so hashing them twice is merely wasteful,
// but the interpreted-ISA kernels recompile on every Get and the hash walk is
// the only reason a spec validation would pay that compile.
var (
	fpMu sync.Mutex
	fps  = map[fpKey]string{}
)

type fpKey struct {
	name      string
	instBytes int
}

// Fingerprint returns the content hash of the named workload's program
// image as laid out for instBytes-byte instructions (see GetAt and
// program.Fingerprint).  The hash identifies the workload *definition*:
// regenerating it after a generator or kernel change yields a new value,
// which is what lets RunSpec digests invalidate stale cached results.
func Fingerprint(name string, instBytes int) (string, error) {
	key := fpKey{name, instBytes}
	fpMu.Lock()
	if f, ok := fps[key]; ok {
		fpMu.Unlock()
		return f, nil
	}
	fpMu.Unlock()
	p, err := GetAt(name, instBytes)
	if err != nil {
		return "", err
	}
	f := p.Fingerprint()
	// An interpreted kernel's behaviours hash by type only (they bridge to a
	// live machine), so fold the source text in: an edit that keeps the
	// instruction stream's hashed shape — say an immediate operand — must
	// still move the fingerprint.
	if src, ok := kernelSource(name); ok {
		sum := sha256.Sum256([]byte(f + "\nsource:" + src))
		f = fmt.Sprintf("sha256:%x", sum)
	}
	fpMu.Lock()
	fps[key] = f
	fpMu.Unlock()
	return f, nil
}

// kernelSource returns the assembly text of an interpreted-ISA kernel.
func kernelSource(name string) (string, bool) {
	switch name {
	case "sort":
		return isa.SortSource, true
	case "fib":
		return isa.FibSource, true
	case "dispatch":
		return isa.DispatchSource, true
	}
	return "", false
}
