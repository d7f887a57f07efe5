package program

import (
	"crypto/sha256"
	"fmt"
)

// Fingerprint returns a stable content hash of the program's static image:
// every instruction's PC, kind, class, static target, register dataflow, and
// behaviour parameters, in PC order.  Two programs with the same fingerprint
// drive bit-identical simulations (given equal seeds and configurations), so
// the hash is the workload component of a RunSpec digest: if a generator or
// kernel changes, the fingerprint — and with it every cached result keyed on
// it — changes too.
//
// Synthetic behaviours are pure data (parameters plus a deterministically
// assigned State-slot id) and hash by value.  In a SingleUse program every
// behaviour bridges to a live interpreter machine — pointer-laden state whose
// rendering is not stable across processes — so those hash by type only; an
// interpreted program's identity is pinned by its instruction stream plus the
// source text, which workloads.Fingerprint folds in.
func (p *Program) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "cobra-program-v1 %s entry=%#x instbytes=%d n=%d\n",
		p.Name, p.Entry, p.InstBytes, p.n)
	behave := func(b any) string {
		if p.SingleUse {
			return fmt.Sprintf("%T", b)
		}
		return fmt.Sprintf("%T%+v", b, b)
	}
	for _, i := range p.insts {
		if i == nil {
			continue
		}
		fmt.Fprintf(h, "%#x k=%d c=%d t=%#x r=%d,%d,%d",
			i.PC, i.Kind, i.Class, i.Target, i.Dst, i.Src1, i.Src2)
		if i.Dir != nil {
			fmt.Fprintf(h, " dir=%s", behave(i.Dir))
		}
		if i.Tgt != nil {
			fmt.Fprintf(h, " tgt=%s", behave(i.Tgt))
		}
		if i.Mem != nil {
			fmt.Fprintf(h, " mem=%s", behave(i.Mem))
		}
		if i.Sem != nil {
			fmt.Fprintf(h, " sem=%T", i.Sem)
		}
		h.Write([]byte("\n"))
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
