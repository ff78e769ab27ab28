package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownWhatIsUsageError runs main in a child process (the test binary
// re-executed with SPT_BENCH_MAIN set) and checks that an unknown -what
// exits 2 and names every valid section instead of silently doing nothing.
func TestUnknownWhatIsUsageError(t *testing.T) {
	if os.Getenv("SPT_BENCH_MAIN") == "1" {
		os.Args = []string{"spt-bench", "-what", "bogus"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownWhatIsUsageError$")
	cmd.Env = append(os.Environ(), "SPT_BENCH_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("spt-bench -what bogus: err = %v, want exit status 2\nstderr:\n%s", err, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown -what "bogus"`) {
		t.Fatalf("stderr does not name the bad section:\n%s", msg)
	}
	for _, name := range sections {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not list valid section %q:\n%s", name, msg)
		}
	}
}
