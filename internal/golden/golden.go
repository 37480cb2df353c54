// Package golden compares test output with digest files committed under
// a package's testdata directory. Running a test binary with -update
// rewrites the files instead; a change that means to move a digest says
// which one and why.
package golden

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden digest files under testdata")

// Check fails t unless got equals the file at path, rewriting the file
// first under -update.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("%s digests moved:\n got:\n%s want:\n%s", path, got, want)
	}
}
