package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the tooling reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// childRun is one workload run in its own process, as -sets reads it back.
type childRun struct {
	res      result
	counters string
}

// runSets runs every workload sets times, each in a fresh process,
// reversing the order on alternate sets so slow drift on the host does not
// favour one position, then compares the first two sets.
func runSets(cfg config, seconds float64, sets int, stdout, stderr io.Writer) error {
	bf, err := loadBenchmarkFile(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	got := make([]map[string]childRun, sets)
	for s := range got {
		got[s] = map[string]childRun{}
		order := workloadNames()
		if s%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0",
				"-root", cfg.root, "-workdir", cfg.workdir)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d %s: %w", s+1, name, err)
			}
			cr, err := parseChild(name, out, stdout, fmt.Sprintf("set%d ", s+1))
			if err != nil {
				return fmt.Errorf("set %d: %w", s+1, err)
			}
			got[s][name] = cr
		}
	}
	if sets < 2 {
		return nil
	}
	bad := 0
	for _, name := range workloadNames() {
		a, b := got[0][name], got[1][name]
		for _, m := range bf.EndToEnd {
			va, vb := a.res.Metrics[m.Name].Value, b.res.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if !(worse <= m.Bound) { // NaN is out too
				verdict = "OUT"
				bad++
			}
			fmt.Fprintf(stdout, "compare %s %s set1=%s set2=%s worse=%+.4f bound=%g %s\n",
				name, m.Name, fmtNum(va), fmtNum(vb), worse, m.Bound, verdict)
		}
		exact := a.counters == b.counters && a.counters != ""
		ok := exact && a.res.Correct && b.res.Correct && a.res.Failed == 0 && b.res.Failed == 0
		fmt.Fprintf(stdout, "compare %s counters exact=%t failed=%d/%d\n", name, exact, a.res.Failed, b.res.Failed)
		if !ok {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("sets disagree beyond the benchmark's bounds: %d finding(s)", bad)
	}
	return nil
}

// parseChild echoes a child run's output with a prefix and reads back its
// result line and counter digest.
func parseChild(name string, out []byte, echo io.Writer, prefix string) (childRun, error) {
	var cr childRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, prefix+line)
		if f := strings.Fields(line); len(f) == 3 && f[0] == name && f[1] == "counters" {
			cr.counters = f[2]
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return cr, fmt.Errorf("%s: last line is not a result: %w", name, err)
	}
	return cr, nil
}
