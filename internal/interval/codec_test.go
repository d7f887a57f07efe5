package interval

import (
	"bytes"
	"encoding/binary"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cobra/internal/sealed"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files")

// randomSet builds a seeded pseudo-random contiguous window sequence
// exercising empty and populated provider lists, zero-span and wide windows,
// and full-range counter values.
func randomSet(rng *rand.Rand, n int) *Set {
	names := []string{"TAGE3", "BIM2", "BTB2", "UBTB1", "LOOP3", "a-very-long-component-instance-name"}
	s := &Set{IntervalInsts: 1 + uint64(rng.Intn(200_000)), Dropped: uint64(rng.Intn(3))}
	index := rng.Intn(5)
	cyc := uint64(rng.Intn(10_000))
	inst := uint64(rng.Intn(10_000))
	for i := 0; i < n; i++ {
		w := Window{
			Index:      index,
			StartCycle: cyc, EndCycle: cyc + uint64(rng.Intn(1_000_000)),
			StartInst: inst, EndInst: inst + uint64(rng.Intn(1_000_000)),

			Branches:       rng.Uint64() >> uint(rng.Intn(64)),
			Mispredicts:    uint64(rng.Intn(10_000)),
			DirMispredicts: uint64(rng.Intn(10_000)),
			TgtMispredicts: uint64(rng.Intn(10_000)),
			BTBMisses:      uint64(rng.Intn(10_000)),
			RASEvents:      uint64(rng.Intn(10_000)),
			FetchBubbles:   uint64(rng.Intn(10_000)),
			Redirects:      uint64(rng.Intn(10_000)),
			HistoryRepairs: uint64(rng.Intn(10_000)),
			FetchReplays:   uint64(rng.Intn(10_000)),
			Overrides:      uint64(rng.Intn(10_000)),
			Squashes:       uint64(rng.Intn(10_000)),
			H2PMispredicts: uint64(rng.Intn(10_000)),
		}
		for _, name := range names {
			if rng.Intn(2) == 0 {
				w.Providers = append(w.Providers, ProviderStat{
					Name: name, Branches: uint64(rng.Intn(100_000)), Mispredicts: uint64(rng.Intn(1_000)),
				})
			}
		}
		s.Windows = append(s.Windows, w)
		index++
		cyc, inst = w.EndCycle, w.EndInst
	}
	return s
}

func TestCodecRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500} {
		rng := rand.New(rand.NewSource(int64(n) + 42))
		want := randomSet(rng, n)
		data, err := want.Encode()
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		want.Hash = want.ContentHash()
		if got.Hash != want.Hash {
			t.Fatalf("n=%d: decoded hash %s, want %s", n, got.Hash, want.Hash)
		}
		if len(got.Windows) != len(want.Windows) {
			t.Fatalf("n=%d: got %d windows back", n, len(got.Windows))
		}
		if got.IntervalInsts != want.IntervalInsts || got.Dropped != want.Dropped {
			t.Fatalf("n=%d: header fields mangled: %+v", n, got)
		}
		for i := range want.Windows {
			if !reflect.DeepEqual(got.Windows[i], want.Windows[i]) {
				t.Fatalf("n=%d: window %d: got %+v, want %+v", n, i, got.Windows[i], want.Windows[i])
			}
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	// Many small seeded sets: any encode/decode asymmetry that depends on
	// field values shows up across the sweep.
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want := randomSet(rng, 1+rng.Intn(24))
		data, err := want.Encode()
		if err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Windows, want.Windows) {
			t.Fatalf("seed %d: round trip mismatch", seed)
		}
		// Re-encoding the decoded set must reproduce the bytes exactly —
		// the content hash is only a determinism pin if encoding is a
		// function of the logical content alone.
		again, err := got.Encode()
		if err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("seed %d: re-encode produced different bytes", seed)
		}
	}
}

// TestCodecGolden pins the CBRAIVL1 byte layout: the format is an interchange
// surface (files on disk, the /intervals binary endpoint), so accidental
// layout drift must fail loudly.  Regenerate with -update after a deliberate
// format change.
func TestCodecGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set := randomSet(rng, 9)
	data, err := set.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden.ivl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("CBRAIVL1 encoding drifted from the golden file (%d vs %d bytes).\n"+
			"If the format changed deliberately, bump the magic and regenerate with -update.",
			len(data), len(want))
	}
}

func encodeT(t *testing.T, s *Set) []byte {
	t.Helper()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	_, err := Decode([]byte("NOTMAGIC and then some junk bytes"))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("err = %v, want bad-magic error", err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	full := encodeT(t, randomSet(rng, 12))
	for _, cut := range []int{len(full) - 1, len(full) / 2, 13, 9} {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncation at %d of %d bytes decoded without error", cut, len(full))
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	full := encodeT(t, randomSet(rng, 6))
	for _, pos := range []int{9, len(full) / 3, len(full) - 6, len(full) - 1} {
		bad := append([]byte(nil), full...)
		bad[pos] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("bit flip at byte %d decoded without error", pos)
		} else if !strings.Contains(err.Error(), "checksum") && pos < len(full)-4 {
			t.Errorf("bit flip at byte %d: err = %v, want checksum mismatch", pos, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	full := encodeT(t, randomSet(rng, 3))
	bad := sealed.Frame(magic, append(full[8:len(full)-4:len(full)-4], 0xAA, 0xBB))
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v, want trailing-bytes error", err)
	}
}

func TestDecodeRejectsImplausibleCounts(t *testing.T) {
	// Hand-build a header claiming 2^40 windows; the CRC is valid, so only
	// the structural bound rejects it.
	buf := binary.AppendUvarint(nil, 100) // interval
	buf = binary.AppendUvarint(buf, 0)    // dropped
	buf = binary.AppendUvarint(buf, 0)    // names
	buf = binary.AppendUvarint(buf, 1<<40)
	bad := sealed.Frame(magic, buf)
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "implausible window count") {
		t.Fatalf("err = %v, want implausible-window-count error", err)
	}
}

func TestEncodeRejectsNonContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := randomSet(rng, 4)
	s.Windows[2].StartCycle++ // tear the tiling
	if _, err := s.Encode(); err == nil || !strings.Contains(err.Error(), "not contiguous") {
		t.Fatalf("err = %v, want contiguity error", err)
	}
	if s.ContentHash() != "" {
		t.Fatal("ContentHash of an unencodable set should be empty")
	}
}
