package obs

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cobra/internal/sealed"
)

// randomEvents builds a seeded pseudo-random event stream exercising every
// kind, frontend and component records, boundary slot/dur values, and
// full-range 64-bit fields.
func randomEvents(rng *rand.Rand, n int) []Event {
	comps := []string{"", "TAGE3", "BIM2", "BTB2", "UBTB1", "LOOP3", "a-very-long-component-instance-name"}
	evs := make([]Event, n)
	cycle := uint64(0)
	for i := range evs {
		cycle += uint64(rng.Intn(5))
		kind := Kind(rng.Intn(int(numKinds)))
		comp := comps[rng.Intn(len(comps))]
		evs[i] = Event{
			Cycle:   cycle,
			PC:      rng.Uint64(),
			Seq:     rng.Uint64(),
			MetaSum: rng.Uint64(),
			Kind:    kind,
			Slot:    int16(rng.Intn(6) - 1),
			Dur:     uint16(rng.Intn(4)),
			Comp:    comp,
		}
	}
	return evs
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		rng := rand.New(rand.NewSource(int64(n) + 42))
		want := randomEvents(rng, n)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, want); err != nil {
			t.Fatalf("n=%d: write: %v", n, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d events back", n, len(got))
		}
		if n > 0 && !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("n=%d: event %d: got %+v, want %+v", n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	// Many small seeded streams: any write/read asymmetry that depends on
	// field values shows up across the sweep.
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := randomEvents(rng, 1+rng.Intn(64))
		var buf bytes.Buffer
		if err := WriteBinary(&buf, want); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	_, err := ReadBinary(strings.NewReader("NOTMAGIC junk"))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("err = %v, want bad-magic error", err)
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := randomEvents(rng, 20)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, evs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) - 1, len(full) / 2, 10, 4} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d of %d bytes read back without error", cut, len(full))
		}
	}
}

// TestBinaryHugeCountIsShortRead: a header claiming ~800M events over a
// file that holds none is a truncation error, not a 45 GB preallocation
// that kills the process.
func TestBinaryHugeCountIsShortRead(t *testing.T) {
	raw := sealed.Frame(eventMagic, []byte("\x01\x00\x00\x00\x04\x0000000000\x00\x00\x00\x00"))
	if _, err := ReadBinary(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "event 0") {
		t.Fatalf("err = %v, want a short read at event 0", err)
	}
}

func TestBinaryRejectsBadKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Event{{Kind: KPredict, Comp: "X"}}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()[8 : buf.Len()-4]
	// Body: nComp(4) + len(2)+"X"(1) + nEvents(8); kind is the first record
	// byte.
	body[4+3+8] = 0xEE
	if _, err := ReadBinary(bytes.NewReader(sealed.Frame(eventMagic, body))); err == nil || !strings.Contains(err.Error(), "invalid kind") {
		t.Fatalf("err = %v, want invalid-kind error", err)
	}
}

// TestBinaryRejectsDamage: a flipped bit inside a record, or bytes after
// the last record, is corruption the reader reports, not events it returns.
func TestBinaryRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, randomEvents(rand.New(rand.NewSource(9)), 30)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	flipped := append([]byte(nil), full...)
	flipped[len(full)-4-40+20] ^= 0x10 // the PC of the last record
	trailing := append(append([]byte(nil), full...), "junk"...)
	// Trailing bytes under a matching checksum: only the end check sees them.
	resealed := sealed.Frame(eventMagic, append(full[8:len(full)-4:len(full)-4], 0))
	for name, raw := range map[string][]byte{"flipped": flipped, "trailing": trailing, "resealed trailing": resealed} {
		if _, err := ReadBinary(bytes.NewReader(raw)); !errors.Is(err, sealed.ErrCorrupt) {
			t.Errorf("%s: err = %v, want sealed.ErrCorrupt", name, err)
		}
	}
}

// TestBinaryRejectsOldVersion: a CBRAEVT1 file, which carried no checksum,
// fails naming its version instead of being read unchecked.
func TestBinaryRejectsOldVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, randomEvents(rand.New(rand.NewSource(3)), 4)); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("CBRAEVT1"), buf.Bytes()[8:buf.Len()-4]...)
	_, err := ReadBinary(bytes.NewReader(old))
	if !errors.Is(err, sealed.ErrMagic) || !strings.Contains(err.Error(), `"CBRAEVT1": another format or an unsupported version`) {
		t.Fatalf("err = %v, want unsupported version CBRAEVT1", err)
	}
}
