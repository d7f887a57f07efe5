package cli

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

// captureStderr points os.Stderr at a temporary file for the duration of
// fn and returns what was written there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestProgressReporting: -progress starts a reporter that prints the metrics
// sink's status line at its period and stops with the telemetry closer;
// under -server no local line is printed.
func TestProgressReporting(t *testing.T) {
	telemetry := func(args ...string) string {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		f := AddRunFlags(fs, GProgress|GServer)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return captureStderr(t, func() {
			met, stop, err := f.Telemetry("tool")
			if err != nil {
				t.Fatal(err)
			}
			met.AddJobs(2)
			met.JobStarted()
			met.JobDone(false)
			// Wait for the first heartbeat (or, when none is due, give a
			// reporter ten periods to print one it should not).
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				time.Sleep(50 * time.Millisecond)
				if data, _ := os.ReadFile(os.Stderr.Name()); met == nil || len(data) > 0 {
					break
				}
			}
			stop()
		})
	}
	if out := telemetry("-progress", "5ms"); !strings.Contains(out, "1/2 jobs done") {
		t.Errorf("no progress heartbeat written; got %q", out)
	}
	if out := telemetry("-progress", "5ms", "-server", "http://127.0.0.1:1"); out != "" {
		t.Errorf("-server run printed a local progress line: %q", out)
	}
}
