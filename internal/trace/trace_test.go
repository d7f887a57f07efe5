package trace

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"cobra/internal/compose"
	"cobra/internal/pred"
	"cobra/internal/program"
	"cobra/internal/sealed"
	"cobra/internal/workloads"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{PC: 0x1000, Kind: program.KindBranch, Taken: true, Target: 0x2000},
		{PC: 0x1004, Kind: program.KindJump, Taken: true, Target: 0x3000},
		{PC: 0x3000, Kind: program.KindRet, Taken: true, Target: 0x1008},
		{PC: 0x1008, Kind: program.KindBranch, Taken: false, Target: 0},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("Count = %d", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewBufferString("NOPE!!")); err == nil {
		t.Error("bad magic must fail")
	}
	if _, err := NewReader(bytes.NewBufferString("")); err == nil {
		t.Error("empty stream must fail")
	}
}

// TestReadRejectsInvalidKind: a record whose kind is not a control-flow
// instruction is damage, not a branch to simulate.
func TestReadRejectsInvalidKind(t *testing.T) {
	for _, head := range []byte{byte(program.KindOp) << 1, byte(program.KindIndirect+1) << 1, 0xFF} {
		r, err := NewReader(bytes.NewReader(sealed.Frame(magic, []byte{head, 0x10, 0x20})))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(); err == nil || !strings.Contains(err.Error(), "invalid record kind") {
			t.Errorf("head %#x: err = %v, want invalid record kind", head, err)
		}
	}
}

// TestReadRejectsDamage: a trace cut at a record boundary, cut inside its
// trailer, or with a flipped bit fails with sealed.ErrCorrupt instead of
// reading back a plausible prefix.
func TestReadRejectsDamage(t *testing.T) {
	prog, err := workloads.Get("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	n, err := Capture(&full, prog, 1, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Find the byte offset after the first n/2 records by writing them alone.
	recs, err := readAll(bytes.NewReader(full.Bytes()))
	if err != nil || uint64(len(recs)) != n {
		t.Fatalf("read %d of %d records: %v", len(recs), n, err)
	}
	var half bytes.Buffer
	w, _ := NewWriter(&half)
	for _, r := range recs[:n/2] {
		w.Write(r)
	}
	w.Close()
	boundary := half.Len() - 4
	data := full.Bytes()
	flipped := append([]byte(nil), data...)
	flipped[len(data)/2] ^= 0x01
	for name, raw := range map[string][]byte{
		"cut at a record boundary": data[:boundary],
		"cut inside the trailer":   data[:len(data)-3],
		"flipped bit":              flipped,
	} {
		if _, err := readAll(bytes.NewReader(raw)); !errors.Is(err, sealed.ErrCorrupt) {
			t.Errorf("%s: err = %v, want sealed.ErrCorrupt", name, err)
		}
	}
}

// TestReadRejectsEveryCut cuts a captured trace, longer than the reader's
// buffer, at every byte offset past the magic: each prefix fails with
// sealed.ErrCorrupt after reading only records of the full trace, and none
// reaches a clean end of stream.  (A cut inside the magic is another
// format, sealed.ErrMagic, as the frame's own tests pin.)
func TestReadRejectsEveryCut(t *testing.T) {
	prog, err := workloads.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if _, err := Capture(&full, prog, 3, 8000); err != nil {
		t.Fatal(err)
	}
	data := full.Bytes()
	if len(data) <= 4096 {
		t.Fatalf("captured %d bytes; the cuts must cross a buffer refill", len(data))
	}
	want, err := readAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(magic); cut < len(data); cut++ {
		got, err := readAll(bytes.NewReader(data[:cut]))
		if !errors.Is(err, sealed.ErrCorrupt) {
			t.Fatalf("cut at %d of %d: err = %v after %d records, want sealed.ErrCorrupt", cut, len(data), err, len(got))
		}
		if len(got) > len(want) || !slices.Equal(got, want[:len(got)]) {
			t.Fatalf("cut at %d: read %d records that are not a prefix of the trace", cut, len(got))
		}
	}
}

// TestReadRejectsOldVersion: a CBRT1 trace, which carried no checksum,
// fails naming its version instead of being read unchecked.
func TestReadRejectsOldVersion(t *testing.T) {
	_, err := NewReader(strings.NewReader("CBRT1\n\x02\x80\x20\x80\x40"))
	if !errors.Is(err, sealed.ErrMagic) || !strings.Contains(err.Error(), `bad magic "CBRT1\n`) || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("err = %v, want unsupported version CBRT1", err)
	}
}

func TestCapture(t *testing.T) {
	prog, err := workloads.Get("dhrystone")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Capture(&buf, prog, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no CFIs captured")
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	for {
		if _, err := r.Read(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != n {
		t.Errorf("read %d records, wrote %d", count, n)
	}
}

func TestTraceSimAccuracyExceedsInCore(t *testing.T) {
	// The idealized trace simulator sees perfect histories and immediate
	// updates, so for a history-hungry predictor it reports *optimistic*
	// accuracy relative to hardware conditions — the §II-B modelling error.
	prog, err := workloads.Get("gcc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Capture(&buf, prog, 42, 200000); err != nil {
		t.Fatal(err)
	}
	p, err := compose.New(pred.DefaultConfig(),
		compose.MustParse("GTAG3 > BTB2 > BIM2"), compose.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches == 0 {
		t.Fatal("no branches simulated")
	}
	if res.Accuracy() < 0.7 {
		t.Errorf("trace-sim accuracy %.3f implausibly low", res.Accuracy())
	}
	t.Logf("trace-sim: branches=%d acc=%.4f", res.Branches, res.Accuracy())
}

func TestSimulateDeterministic(t *testing.T) {
	run := func() SimResult {
		// Programs carry stateful behaviours: every simulation needs a
		// freshly built instance.
		prog, _ := workloads.Get("dhrystone")
		var buf bytes.Buffer
		Capture(&buf, prog, 9, 50000)
		p, _ := compose.New(pred.DefaultConfig(),
			compose.MustParse("BIM2"), compose.Options{})
		r, _ := NewReader(&buf)
		res, err := Simulate(p, r)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run() != run() {
		t.Error("trace simulation not deterministic")
	}
}
