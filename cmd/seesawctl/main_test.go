package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
)

// runCaptured calls run with os.Stderr redirected into a pipe and
// returns the exit code and everything written to stderr.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	defer func() { os.Stderr = stderr }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	code := run(context.Background(), args)
	w.Close()
	return code, <-out
}

// TestBadFlagExitCodes pins the flag-parse exit codes of every
// subcommand: an unknown flag exits 2 with the parser's message on
// stderr, and -h exits 0.
func TestBadFlagExitCodes(t *testing.T) {
	code, stderr := runCaptured(t, "search", "-lanes", "2")
	if code != 2 {
		t.Errorf("search -lanes 2: exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "flag provided but not defined: -lanes") {
		t.Errorf("search -lanes 2: stderr lacks the unknown-flag message:\n%s", stderr)
	}

	for _, args := range [][]string{
		{"run", "fig4", "-bogus"},
		{"all", "-bogus"},
		{"selftest", "-bogus"},
		{"trace", "-bogus"},
		{"job", "-bogus"},
		{"serve", "-bogus"},
		{"search", "-bogus"},
	} {
		code, stderr := runCaptured(t, args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -bogus") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and the unknown-flag message", args, code, stderr)
		}
	}

	for _, args := range [][]string{{"search", "-h"}, {"trace", "-h"}, {"serve", "-h"}} {
		code, stderr := runCaptured(t, args...)
		if code != 0 || !strings.Contains(stderr, "Usage of") {
			t.Errorf("%v: exit %d, stderr %q; want 0 and usage", args, code, stderr)
		}
	}
}

// TestBadFaultPlanExitCodes pins that a fault plan the platform cannot
// run — a non-finite slow factor, a non-positive one, or a node off the
// platform — is rejected as bad input (exit 2, the fault error on
// stderr) before any episode runs.
func TestBadFaultPlanExitCodes(t *testing.T) {
	for _, plan := range []string{"slow:1@2xNaN+3", "slow:1@2xInf+3", "slow:1@2x0+3", "kill:8@2"} {
		for _, cmd := range []string{"search", "trace"} {
			code, stderr := runCaptured(t, cmd, "-nodes", "8", "-steps", "20", "-faults", plan)
			if code != 2 || !strings.Contains(stderr, "fault:") {
				t.Errorf("%s -faults %s: exit %d, stderr %q; want 2 and the fault error", cmd, plan, code, stderr)
			}
		}
	}
}
