package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestGeneratedLoopsCurrent: the checked-in funct.go is what loopgen
// makes of exec.go now, so an edit to run reaches every policy's loop.
func TestGeneratedLoopsCurrent(t *testing.T) {
	src, err := os.ReadFile("../exec.go")
	if err != nil {
		t.Fatal(err)
	}
	want, err := generate(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../funct.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/cpu/funct.go differs from what loopgen generates from exec.go; run go generate ./internal/cpu")
	}
}

// TestGenerateNeedsPolicyConst: a run that does not bind its policy in
// its first statement cannot be rebound, and loopgen says so.
func TestGenerateNeedsPolicyConst(t *testing.T) {
	src, err := os.ReadFile("../exec.go")
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(src), "const pol = detailed", "const pol = warm", 1)
	if _, err := generate([]byte(bad)); err == nil {
		t.Fatal("generate accepted a run that binds no detailed policy")
	}
}

// TestCoreHandBacks: the core executes every op of run's switch but
// the three that need the loop (syscall and iret set its stop checks,
// break always ends in an error), so a change to run that pushes
// another op out of the core shows here.
func TestCoreHandBacks(t *testing.T) {
	src, err := os.ReadFile("../exec.go")
	if err != nil {
		t.Fatal(err)
	}
	out, err := generate(src)
	if err != nil {
		t.Fatal(err)
	}
	if want := "runs: pSyscall, pBreak, pIRET and every op"; !bytes.Contains(out, []byte(want)) {
		t.Fatalf("the core no longer hands back only at syscall, break and iret (want %q in its comment)", want)
	}
}
