package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Event(&Event{Cycle: uint64(i), Kind: KPredict, Comp: "X"})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Errorf("Events[%d].Cycle = %d, want %d (oldest-first order)", i, ev.Cycle, want)
		}
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 3; i++ {
		tr.Event(&Event{Cycle: uint64(i)})
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len(Events) = %d, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Cycle != uint64(i) {
			t.Errorf("Events[%d].Cycle = %d, want %d", i, ev.Cycle, i)
		}
	}
}

func TestTracerDefaultCap(t *testing.T) {
	tr := NewTracer(0)
	if got := cap(tr.buf); got != DefaultTracerCap {
		t.Fatalf("default capacity = %d, want %d", got, DefaultTracerCap)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, true", name, got, ok, k)
		}
	}
	if _, ok := ParseKind("nonsense"); ok {
		t.Error("ParseKind accepted an unknown name")
	}
	if Kind(200).String() != "invalid" {
		t.Error("out-of-range kind did not print invalid")
	}
}

func TestMetaSum(t *testing.T) {
	a := MetaSum([]uint64{1, 2, 3})
	if a != MetaSum([]uint64{1, 2, 3}) {
		t.Fatal("MetaSum not deterministic")
	}
	if a == MetaSum([]uint64{1, 2, 4}) {
		t.Fatal("MetaSum collision on adjacent inputs")
	}
	if MetaSum(nil) != MetaSum([]uint64{}) {
		t.Fatal("MetaSum(nil) != MetaSum(empty)")
	}
}

func TestNilMetricsSafe(t *testing.T) {
	var m *Metrics
	m.AddJobs(3)
	m.JobStarted()
	m.JobDone(true)
	m.AddCycles(7)
	m.AddInsts(9)
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.AddJobs(4)
	m.JobStarted()
	m.JobStarted()
	m.JobDone(false)
	m.AddCycles(2000)
	m.AddInsts(1000)
	s := m.Snap()
	if s.JobsTotal != 4 || s.JobsStarted != 2 || s.JobsDone != 1 || s.JobsFailed != 0 {
		t.Fatalf("bad snapshot: %+v", s)
	}
	if s.Cycles != 2000 || s.Instructions != 1000 {
		t.Fatalf("bad counters: %+v", s)
	}
	if !strings.Contains(m.ProgressLine(), "1/4 jobs done") {
		t.Fatalf("progress line: %q", m.ProgressLine())
	}
	expo := m.exposition(false, nil)
	for _, want := range []string{
		"cobra_jobs_total 4", "cobra_jobs_running 1", "cobra_jobs_done 1",
		"cobra_sim_cycles_total 2000", "cobra_sim_instructions_total 1000",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q:\n%s", want, expo)
		}
	}
}

func TestServeMetrics(t *testing.T) {
	m := NewMetrics()
	m.AddJobs(2)
	addr, closer, err := ServeMetrics("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer closer() //nolint:errcheck
	for _, path := range []string{"/", "/metrics"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(body), "cobra_jobs_total 2") {
			t.Errorf("GET %s: missing counter in body:\n%s", path, body)
		}
	}
}

func TestServePprof(t *testing.T) {
	addr, closer, err := ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer() //nolint:errcheck
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

func TestBranchProfile(t *testing.T) {
	p := NewBranchProfile()
	ops := []Opinion{
		{Comp: "TAGE3", DirValid: true, Taken: false},
		{Comp: "BIM2", DirValid: true, Taken: true},
		{Comp: "UBTB1", DirValid: false, Taken: true},
	}
	// PC 0x100: 3 execs, 2 mispredicts provided by TAGE3; BIM2 was right.
	p.Record(0x100, "branch", true, true, "TAGE3", ops)
	p.Record(0x100, "branch", true, true, "TAGE3", ops)
	p.Record(0x100, "branch", false, false, "TAGE3", nil)
	// PC 0x200: 1 exec, 1 mispredict.
	p.Record(0x200, "jump", true, true, "BTB2", nil)

	if p.TotalExecs() != 4 || p.TotalMispredicts() != 3 {
		t.Fatalf("totals: execs=%d misp=%d", p.TotalExecs(), p.TotalMispredicts())
	}
	if p.PCs() != 2 {
		t.Fatalf("PCs = %d", p.PCs())
	}
	top := p.Top(0)
	if len(top) != 2 || top[0].PC != 0x100 || top[1].PC != 0x200 {
		t.Fatalf("Top order wrong: %+v", top)
	}
	if top[0].WrongBy["TAGE3"] != 2 {
		t.Errorf("WrongBy[TAGE3] = %d, want 2", top[0].WrongBy["TAGE3"])
	}
	if top[0].RightBy["BIM2"] != 2 {
		t.Errorf("RightBy[BIM2] = %d, want 2 (overridden-but-right)", top[0].RightBy["BIM2"])
	}
	if _, bad := top[0].RightBy["UBTB1"]; bad {
		t.Error("RightBy counted a DirValid=false opinion")
	}
	if got := p.ShareTop(1); got < 0.66 || got > 0.67 {
		t.Errorf("ShareTop(1) = %f, want 2/3", got)
	}
	tbl := p.Table(2).String()
	if !strings.Contains(tbl, "H2P") || !strings.Contains(tbl, "0x100") {
		t.Errorf("table missing content:\n%s", tbl)
	}
}

func TestBranchProfileSumInvariant(t *testing.T) {
	p := NewBranchProfile()
	want := uint64(0)
	for i := 0; i < 100; i++ {
		misp := i%3 == 0
		if misp {
			want++
		}
		p.Record(uint64(0x1000+i%7*4), "branch", i%2 == 0, misp, "BIM2", nil)
	}
	var sum uint64
	for _, st := range p.Top(0) {
		sum += st.Misp
	}
	if sum != want || p.TotalMispredicts() != want {
		t.Fatalf("per-PC sum %d, TotalMispredicts %d, want %d", sum, p.TotalMispredicts(), want)
	}
}
