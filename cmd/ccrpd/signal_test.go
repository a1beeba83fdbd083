//go:build unix

package main

import (
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs ccrpd's main instead of the tests when TestSIGTERMDrains
// starts this test binary as the daemon.
func TestMain(m *testing.M) {
	if os.Getenv("CCRP_TEST_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// TestSIGTERMDrains stops ccrpd as an orchestrator does: the process
// takes SIGTERM as the end of its context, drains and exits 0.
func TestSIGTERMDrains(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "CCRP_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer time.AfterFunc(time.Minute, func() { cmd.Process.Kill() }).Stop()
	addr := make(chan string, 1)
	logc := watch(stderr, addr)
	select {
	case <-addr:
	case log := <-logc:
		cmd.Wait()
		t.Fatalf("ccrpd exited before listening:\n%s", log)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	log := <-logc // the pipe must be read to its end before Wait
	if err := cmd.Wait(); err != nil || !strings.Contains(log, "ccrpd: drained\n") {
		t.Fatalf("after SIGTERM: %v, want exit 0 after a drain; stderr:\n%s", err, log)
	}
}
