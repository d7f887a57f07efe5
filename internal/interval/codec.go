package interval

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"cobra/internal/sealed"
)

// CBRAIVL1 interval-file body (all integers unsigned varints), inside the
// sealed frame (magic "CBRAIVL1", body, CRC32 trailer):
//
//	interval uvarint  window size in instructions
//	dropped  uvarint  windows lost to ring overflow
//	names    uvarint count, per name: uvarint length + raw bytes
//	         (sorted union of provider names across all windows)
//	windows  uvarint count
//	         if count > 0: uvarint first index, first start cycle, first
//	         start inst — every later window starts where its predecessor
//	         ended, so per-window storage is two spans plus the counters:
//	         per window: uvarint cycle span, inst span, the 13 counters in
//	         Window field order, provider count, then per provider:
//	         uvarint name index, branches, mispredicts
//
// Delta-encoding the monotone series keeps a thousand-window file in the
// low kilobytes, and the frame's CRC makes truncation or bit corruption a
// loud decode error rather than silently plausible telemetry.  The encoded
// bytes double as the set's content identity: ContentHash is their sha256.

const magic = "CBRAIVL1"

// Encode serializes the set in CBRAIVL1 form.  It fails if the windows are
// not contiguous with sequential indices — the shape every Recorder and
// FromEvents set has, and the shape the span encoding requires.
func (s *Set) Encode() ([]byte, error) {
	names := map[string]int{}
	for _, w := range s.Windows {
		for _, p := range w.Providers {
			names[p.Name] = 0
		}
	}
	table := make([]string, 0, len(names))
	for name := range names {
		table = append(table, name)
	}
	sort.Strings(table)
	for i, name := range table {
		names[name] = i
	}

	buf := make([]byte, 0, 64+64*len(s.Windows))
	buf = binary.AppendUvarint(buf, s.IntervalInsts)
	buf = binary.AppendUvarint(buf, s.Dropped)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, name := range table {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Windows)))
	if len(s.Windows) > 0 {
		first := &s.Windows[0]
		buf = binary.AppendUvarint(buf, uint64(first.Index))
		buf = binary.AppendUvarint(buf, first.StartCycle)
		buf = binary.AppendUvarint(buf, first.StartInst)
	}
	for i := range s.Windows {
		w := &s.Windows[i]
		if i > 0 {
			p := &s.Windows[i-1]
			if w.Index != p.Index+1 || w.StartCycle != p.EndCycle || w.StartInst != p.EndInst {
				return nil, fmt.Errorf("interval: window %d not contiguous with its predecessor", w.Index)
			}
		}
		if w.EndCycle < w.StartCycle || w.EndInst < w.StartInst {
			return nil, fmt.Errorf("interval: window %d spans backwards", w.Index)
		}
		buf = binary.AppendUvarint(buf, w.EndCycle-w.StartCycle)
		buf = binary.AppendUvarint(buf, w.EndInst-w.StartInst)
		buf = binary.AppendUvarint(buf, w.Branches)
		buf = binary.AppendUvarint(buf, w.Mispredicts)
		buf = binary.AppendUvarint(buf, w.DirMispredicts)
		buf = binary.AppendUvarint(buf, w.TgtMispredicts)
		buf = binary.AppendUvarint(buf, w.BTBMisses)
		buf = binary.AppendUvarint(buf, w.RASEvents)
		buf = binary.AppendUvarint(buf, w.FetchBubbles)
		buf = binary.AppendUvarint(buf, w.Redirects)
		buf = binary.AppendUvarint(buf, w.HistoryRepairs)
		buf = binary.AppendUvarint(buf, w.FetchReplays)
		buf = binary.AppendUvarint(buf, w.Overrides)
		buf = binary.AppendUvarint(buf, w.Squashes)
		buf = binary.AppendUvarint(buf, w.H2PMispredicts)
		buf = binary.AppendUvarint(buf, uint64(len(w.Providers)))
		for _, p := range w.Providers {
			buf = binary.AppendUvarint(buf, uint64(names[p.Name]))
			buf = binary.AppendUvarint(buf, p.Branches)
			buf = binary.AppendUvarint(buf, p.Mispredicts)
		}
	}
	return sealed.Frame(magic, buf), nil
}

// ContentHash returns "sha256:<hex>" over the set's CBRAIVL1 encoding — the
// determinism pin interval files are compared by.  A set the codec cannot
// represent hashes to "".
func (s *Set) ContentHash() string {
	data, err := s.Encode()
	if err != nil {
		return ""
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256(data))
}

// ivlReader walks an encoded buffer with positioned error reporting.
type ivlReader struct {
	data []byte
	off  int
}

func (r *ivlReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("interval: truncated %s at body offset %d", what, r.off)
	}
	r.off += n
	return v, nil
}

// Decode parses a CBRAIVL1 buffer, rejecting bad magic, checksum
// mismatches, truncation, and implausible structure loudly.  A wrong magic
// wraps sealed.ErrMagic, damage sealed.ErrCorrupt.
func Decode(data []byte) (*Set, error) {
	body, err := sealed.Unframe(data, magic)
	if err != nil {
		return nil, fmt.Errorf("interval: %w", err)
	}
	r := &ivlReader{data: body}
	s := &Set{}
	if s.IntervalInsts, err = r.uvarint("interval size"); err != nil {
		return nil, err
	}
	if s.Dropped, err = r.uvarint("dropped count"); err != nil {
		return nil, err
	}
	nNames, err := r.uvarint("name count")
	if err != nil {
		return nil, err
	}
	if nNames > 1<<16 {
		return nil, fmt.Errorf("interval: implausible provider count %d", nNames)
	}
	table := make([]string, nNames)
	for i := range table {
		n, err := r.uvarint("name length")
		if err != nil {
			return nil, err
		}
		if n > 1<<12 || r.off+int(n) > len(r.data) {
			return nil, fmt.Errorf("interval: name %d overruns file", i)
		}
		table[i] = string(r.data[r.off : r.off+int(n)])
		r.off += int(n)
		if i > 0 && table[i] <= table[i-1] {
			return nil, fmt.Errorf("interval: provider names not sorted and unique at %d", i)
		}
	}
	seen := make([]uint64, nNames) // window number + 1 that last named each provider
	nWin, err := r.uvarint("window count")
	if err != nil {
		return nil, err
	}
	if nWin > 1<<24 {
		return nil, fmt.Errorf("interval: implausible window count %d", nWin)
	}
	var index, startCyc, startInst uint64
	if nWin > 0 {
		if index, err = r.uvarint("first index"); err != nil {
			return nil, err
		}
		if startCyc, err = r.uvarint("first start cycle"); err != nil {
			return nil, err
		}
		if startInst, err = r.uvarint("first start inst"); err != nil {
			return nil, err
		}
	}
	// Every window takes at least 16 bytes, so a count the remaining bytes
	// cannot hold is caught as truncation below, after a bounded allocation.
	s.Windows = make([]Window, 0, min(nWin, uint64(len(r.data)-r.off)/16))
	for i := uint64(0); i < nWin; i++ {
		w := Window{Index: int(index), StartCycle: startCyc, StartInst: startInst}
		var spans [15]uint64
		for j, what := range [...]string{
			"cycle span", "inst span", "branches", "mispredicts",
			"dir mispredicts", "tgt mispredicts", "btb misses", "ras events",
			"fetch bubbles", "redirects", "history repairs", "fetch replays",
			"overrides", "squashes", "h2p mispredicts",
		} {
			if spans[j], err = r.uvarint(what); err != nil {
				return nil, err
			}
		}
		w.EndCycle, w.EndInst = startCyc+spans[0], startInst+spans[1]
		if w.EndCycle < startCyc || w.EndInst < startInst {
			return nil, fmt.Errorf("interval: window %d overflows the cycle or instruction count", i)
		}
		w.Branches, w.Mispredicts = spans[2], spans[3]
		w.DirMispredicts, w.TgtMispredicts = spans[4], spans[5]
		w.BTBMisses, w.RASEvents = spans[6], spans[7]
		w.FetchBubbles, w.Redirects = spans[8], spans[9]
		w.HistoryRepairs, w.FetchReplays = spans[10], spans[11]
		w.Overrides, w.Squashes, w.H2PMispredicts = spans[12], spans[13], spans[14]
		nProv, err := r.uvarint("provider count")
		if err != nil {
			return nil, err
		}
		if nProv > nNames {
			return nil, fmt.Errorf("interval: window %d has %d providers but table holds %d", i, nProv, nNames)
		}
		for j := uint64(0); j < nProv; j++ {
			idx, err := r.uvarint("provider name index")
			if err != nil {
				return nil, err
			}
			if idx >= nNames {
				return nil, fmt.Errorf("interval: window %d provider index %d out of range", i, idx)
			}
			if seen[idx] == i+1 {
				return nil, fmt.Errorf("interval: window %d names provider %q twice", i, table[idx])
			}
			seen[idx] = i + 1
			br, err := r.uvarint("provider branches")
			if err != nil {
				return nil, err
			}
			mp, err := r.uvarint("provider mispredicts")
			if err != nil {
				return nil, err
			}
			w.Providers = append(w.Providers, ProviderStat{Name: table[idx], Branches: br, Mispredicts: mp})
		}
		s.Windows = append(s.Windows, w)
		index++
		startCyc, startInst = w.EndCycle, w.EndInst
	}
	if r.off != len(r.data) {
		return nil, fmt.Errorf("interval: %d trailing bytes after last window", len(r.data)-r.off)
	}
	s.Hash = fmt.Sprintf("sha256:%x", sha256.Sum256(data))
	return s, nil
}

// WriteFile encodes the set to path.
func WriteFile(path string, s *Set) error {
	data, err := s.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
