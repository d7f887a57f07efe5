package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"strings"
	"testing"
)

// runTool runs the tool's entry point on args with stdout and stderr
// captured, and returns the captured stderr and run's error.
func runTool(t *testing.T, args ...string) (string, error) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(dir + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(dir + "/stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	savedArgs, savedFlags, savedOut, savedErr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = savedArgs, savedFlags, savedOut, savedErr }()
	os.Args = append([]string{"cobra-experiments"}, args...)
	flag.CommandLine = flag.NewFlagSet("cobra-experiments", flag.ContinueOnError)
	os.Stdout, os.Stderr = stdout, stderr
	runErr := run()
	data, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

// TestTimeoutFailsEveryGrid: -timeout bounds every simulation, on the
// backend path (d2) and the in-process path (energy) alike, and an overrun
// is an error for main to report, not a panic.
func TestTimeoutFailsEveryGrid(t *testing.T) {
	for _, exp := range []string{"d2", "energy"} {
		_, err := runTool(t, "-exp", exp, "-insts", "50000000", "-timeout", "1ms", "-j", "1")
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("-exp %s -timeout 1ms: want a deadline-exceeded error, got %v", exp, err)
		}
	}
}

// TestProgressReportsGrids: -progress prints the runner status line while a
// backend-path grid runs.
func TestProgressReportsGrids(t *testing.T) {
	stderr, err := runTool(t, "-exp", "d1", "-insts", "200000", "-progress", "5ms", "-j", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "jobs done") {
		t.Errorf("-progress printed no status line; stderr:\n%s", stderr)
	}
}
