package compose

import (
	"math/rand"
	"testing"
)

func newHF(n int) *historyFile { return newHistoryFile(n, 4) }

func TestHistoryFileRing(t *testing.T) {
	hf := newHF(4)
	if !hf.empty() || hf.full() {
		t.Fatal("fresh ring state wrong")
	}
	var es []*Entry
	for i := 0; i < 4; i++ {
		es = append(es, hf.alloc())
	}
	if !hf.full() {
		t.Fatal("ring should be full")
	}
	if hf.oldest() != es[0] || hf.youngest() != es[3] {
		t.Fatal("oldest/youngest wrong")
	}
	hf.dequeue()
	if es[0].Valid() {
		t.Error("dequeued entry still valid")
	}
	if hf.oldest() != es[1] {
		t.Error("head did not advance")
	}
	// Reuse the freed slot; sequence numbers stay monotonic.
	e5 := hf.alloc()
	if e5.Seq() <= es[3].Seq() {
		t.Error("sequence numbers must be monotonic")
	}
	if e5.idx != es[0].idx {
		t.Error("freed ring slot not reused")
	}
}

func TestHistoryFilePopYoungest(t *testing.T) {
	hf := newHF(4)
	a := hf.alloc()
	b := hf.alloc()
	hf.popYoungest()
	if b.Valid() {
		t.Error("popped entry still valid")
	}
	if hf.youngest() != a {
		t.Error("youngest after pop wrong")
	}
}

func TestHistoryFileWalks(t *testing.T) {
	hf := newHF(8)
	var es []*Entry
	for i := 0; i < 5; i++ {
		es = append(es, hf.alloc())
	}
	pivot := es[1]

	// youngerThan: youngest first, strictly younger.
	var seen []uint64
	hf.youngerThan(pivot, func(e *Entry) { seen = append(seen, e.Seq()) })
	if len(seen) != 3 || seen[0] != es[4].Seq() || seen[2] != es[2].Seq() {
		t.Errorf("youngerThan order = %v", seen)
	}

	// forwardFrom: oldest first, strictly younger.
	seen = seen[:0]
	hf.forwardFrom(pivot, func(e *Entry) { seen = append(seen, e.Seq()) })
	if len(seen) != 3 || seen[0] != es[2].Seq() || seen[2] != es[4].Seq() {
		t.Errorf("forwardFrom order = %v", seen)
	}

	if got := hf.countYoungerThan(pivot); got != 3 {
		t.Errorf("countYoungerThan = %d", got)
	}
	if got := hf.countYoungerThan(es[4]); got != 0 {
		t.Errorf("countYoungerThan(youngest) = %d", got)
	}
}

func TestHistoryFileWrapAroundWalks(t *testing.T) {
	hf := newHF(4)
	for i := 0; i < 4; i++ {
		hf.alloc()
	}
	hf.dequeue()
	hf.dequeue()
	a := hf.alloc() // wraps physically
	b := hf.alloc()
	var seen []uint64
	hf.forwardFrom(hf.oldest(), func(e *Entry) { seen = append(seen, e.Seq()) })
	if len(seen) != 3 || seen[1] != a.Seq() || seen[2] != b.Seq() {
		t.Errorf("wrap-around walk order = %v", seen)
	}
}

func TestHistoryFilePanics(t *testing.T) {
	hf := newHF(2)
	for _, fn := range []func(){hf.dequeue, hf.popYoungest} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty-ring operation must panic")
				}
			}()
			fn()
		}()
	}
}

func TestEntryRecycleClearsState(t *testing.T) {
	hf := newHF(2)
	e := hf.alloc()
	e.shifts = append(e.shifts, true, false)
	e.lhistSaves = append(e.lhistSaves, lhistSave{pc: 1, old: 2})
	hf.alloc()
	hf.dequeue()
	hf.dequeue()
	e2 := hf.alloc() // head wrapped back onto e's physical slot
	if e2.idx != e.idx {
		t.Fatal("expected slot reuse")
	}
	if len(e2.shifts) != 0 || len(e2.lhistSaves) != 0 {
		t.Error("recycled entry leaked prior state")
	}
	if e2.CfiIdx != -1 {
		t.Error("CfiIdx not reset")
	}
}

// TestAcceptFillsRecycledEntry: alloc leaves a recycled entry's slot records
// as they were, so a reused ring position must hold exactly the slots of
// its new Accept, none of its previous occupant's.
func TestAcceptFillsRecycledEntry(t *testing.T) {
	p := mustPipeline(t, "GTAG3 > BTB2 > BIM2", Options{HFEntries: 2})
	e, stages := p.Predict(0, 0x1000)
	first := e.RingIndex()
	p.Accept(0, e, stages[0], brSlots(p, 0x1000, map[int]bool{0: false, 2: true, 3: true}), 2, 0x2000)
	p.Commit(1, e)
	for cycle := uint64(2); ; cycle += 2 {
		e, stages = p.Predict(cycle, 0x3000)
		if e.RingIndex() == first {
			break
		}
		p.Accept(cycle, e, stages[0], brSlots(p, 0x3000, nil), -1, 0x3010)
		p.Commit(cycle+1, e)
	}
	want := brSlots(p, 0x3000, map[int]bool{1: true})
	p.Accept(9, e, stages[0], want, 1, 0x4000)
	for i := range want {
		want[i].PredTaken = want[i].Taken
		if e.Slots[i] != want[i] {
			t.Errorf("slot %d after reuse = %+v, want %+v", i, e.Slots[i], want[i])
		}
	}
}

// TestHistoryFileWrapsAtOddSizes drives rings whose size is not a power of
// two through random alloc/dequeue/pop traffic against a modular-arithmetic
// model: every allocation lands on (head+count) mod size, and oldest,
// youngest and the walks follow the model's age order.
func TestHistoryFileWrapsAtOddSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{5, 33} {
		hf := newHF(n)
		head := 0
		var live []*Entry // oldest first
		for step := 0; step < 20*n; step++ {
			switch op := rng.Intn(3); {
			case op == 0 && !hf.full() || hf.empty():
				want := (head + len(live)) % n
				e := hf.alloc()
				if e.idx != want {
					t.Fatalf("size %d: alloc at ring %d, want %d", n, e.idx, want)
				}
				live = append(live, e)
			case op == 1:
				hf.dequeue()
				live, head = live[1:], (head+1)%n
			default:
				hf.popYoungest()
				live = live[:len(live)-1]
			}
			if hf.count != len(live) || hf.head != head {
				t.Fatalf("size %d: count/head %d/%d, want %d/%d", n, hf.count, hf.head, len(live), head)
			}
			if len(live) == 0 {
				continue
			}
			if hf.oldest() != live[0] || hf.youngest() != live[len(live)-1] {
				t.Fatalf("size %d step %d: oldest/youngest off the model", n, step)
			}
			var fwd []*Entry
			hf.forwardFrom(live[0], func(e *Entry) { fwd = append(fwd, e) })
			if len(fwd) != len(live)-1 || hf.countYoungerThan(live[0]) != len(live)-1 {
				t.Fatalf("size %d step %d: walk saw %d younger entries, want %d", n, step, len(fwd), len(live)-1)
			}
			for i, e := range fwd {
				if e != live[i+1] {
					t.Fatalf("size %d step %d: forward walk out of age order", n, step)
				}
			}
		}
	}
}
