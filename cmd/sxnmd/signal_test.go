package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMRightAfterReadyDrains is the regression test for a daemon
// that took over SIGTERM only after its listener was up: a TERM
// arriving the instant the daemon reported ready killed the process
// instead of draining it. The daemon runs in a child process (the
// signal's default action kills the whole process, so it cannot run
// in this one), which signals itself as soon as run reports ready and
// must then exit 0 after a clean drain.
func TestSIGTERMRightAfterReadyDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a child process")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSignalChild$", "--", t.TempDir())
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		t.Fatalf("daemon did not drain (%v):\n%s", exit.ProcessState, out)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "drained cleanly") {
		t.Fatalf("no clean drain in the daemon's output:\n%s", out)
	}
}

// TestSignalChild is the child half of TestSIGTERMRightAfterReadyDrains:
// it runs only when the spool directory follows "--" on its command
// line. With one P held by this goroutine after the ready handoff, the
// signal lands before run's goroutine does anything more: a handler
// installed only after readiness would miss it.
func TestSignalChild(t *testing.T) {
	spool := ""
	for i, a := range os.Args {
		if a == "--" && i+1 < len(os.Args) {
			spool = os.Args[i+1]
		}
	}
	if spool == "" {
		t.Skip("child process of TestSIGTERMRightAfterReadyDrains")
	}
	runtime.GOMAXPROCS(1)
	ready := make(chan string)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-spool", spool, "-workers", "1"}, ready)
	}()
	// Let run block in its ready send, so the handoff below resumes
	// this goroutine first rather than run's.
	time.Sleep(100 * time.Millisecond)
	select {
	case <-ready:
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		// Hold the only P (well under the 10ms preemption slice) while
		// the signal is delivered, so it cannot race run's goroutine.
		for start := time.Now(); time.Since(start) < 5*time.Millisecond; {
		}
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never exited after SIGTERM")
	}
	bw := bufio.NewWriter(os.Stdout)
	fmt.Fprintln(bw, "child exited cleanly")
	bw.Flush()
}
