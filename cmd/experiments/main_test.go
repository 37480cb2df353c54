package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"weboftrust/internal/golden"
)

// timingLine matches the lines run prints with wall-clock times:
// "setup in …", "[<experiment> in …]" and "total …".
var timingLine = regexp.MustCompile(`^(setup in .*|\[[a-z0-9-]+ in .*\]|total .*)$`)

// stripTimings drops run's timing lines from out, keeping every other
// line, table rows such as "in T ∩ R" included.
func stripTimings(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !timingLine.MatchString(line) {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

func TestRunSelectedExperiments(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-preset", "small", "-seed", "2", "-run", "table2,table4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "TABLE 2") {
		t.Error("table2 output missing")
	}
	if !strings.Contains(out, "TABLE 4") {
		t.Error("table4 output missing")
	}
	if strings.Contains(out, "TABLE 3") {
		t.Error("unselected table3 ran")
	}
	if !strings.Contains(out, "dataset:") {
		t.Error("dataset header missing")
	}
}

func TestRunAllOnSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full small-scale suite")
	}
	var buf bytes.Buffer
	if err := run([]string{"-preset", "small", "-run", "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TABLE 2", "TABLE 3", "FIG. 3", "TABLE 4",
		"E-X1", "E-X2", "A-1", "A-2", "A-3", "A-4", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunArgumentErrors(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-preset", "galactic"},
		{"-run", "table99"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-preset", "small", "-seed", "9", "-run", "table2"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-preset", "small", "-seed", "9", "-run", "table2"}, &b); err != nil {
		t.Fatal(err)
	}
	if stripTimings(a.String()) != stripTimings(b.String()) {
		t.Error("same seed produced different output")
	}
}

// TestRunGolden pins the output of -preset small -seed 9 -run all,
// timing lines stripped, to one SHA-256 in testdata/run.golden. -update
// rewrites it. Other architectures may fuse multiply-adds, which moves
// printed digits, so only amd64 checks.
func TestRunGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("experiment output is pinned on amd64, not %s", runtime.GOARCH)
	}
	var buf bytes.Buffer
	if err := run([]string{"-preset", "small", "-seed", "9", "-run", "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := stripTimings(buf.String())
	golden.Check(t, "testdata/run.golden", fmt.Appendf(nil, "small/seed9/all %x\n", sha256.Sum256([]byte(out))))
}

func TestStripTimings(t *testing.T) {
	in := "setup in 17ms\n| in T ∩ R | 669 |\n[table4 in 7ms]\n| in R − T | 1355 |\n[ablation-binarize in 0s]\ntotal 374ms"
	if got, want := stripTimings(in), "| in T ∩ R | 669 |\n| in R − T | 1355 |"; got != want {
		t.Errorf("stripTimings = %q, want %q", got, want)
	}
}
