package main

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"asv/internal/analysis"
)

// The module-clean tests below share one type-check of the module, the
// slow part of a run; each still renders and checks its own output format.
func init() {
	load := loadModule
	var once sync.Once
	var passes []*analysis.Pass
	var err error
	loadModule = func(root string) ([]*analysis.Pass, error) {
		once.Do(func() { passes, err = load(root) })
		return passes, err
	}
}

func TestRunRejectsUnknownRule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown rule") {
		t.Fatalf("stderr = %q, want unknown-rule error", errb.String())
	}
}

func TestRunRejectsUnsupportedPattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./cmd/..."}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// A clean module under -json must print exactly the empty JSON array — the
// machine-readable contract consumers rely on.
func TestRunJSONModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint run skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.String() != "[]\n" {
		t.Fatalf("stdout = %q, want empty JSON array", out.String())
	}
}

// TestRunModuleClean is the end-to-end path `make lint` exercises: load the
// whole module and require zero findings. Module-wide type-checking through
// the source importer takes a few seconds, so -short skips it.
func TestRunModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint run skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "packages clean") {
		t.Fatalf("stdout = %q, want clean summary", out.String())
	}
}
