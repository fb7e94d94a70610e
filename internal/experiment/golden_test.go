package experiment

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the simulator")

// firstDiff names the first byte at which a and b differ, with context
// from both sides, or returns "" when they are equal.
func firstDiff(aName string, a []byte, bName string, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hiA, hiB := max(0, i-80), min(len(a), i+80), min(len(b), i+80)
	return fmt.Sprintf("diverge at byte %d:\n%s: …%q…\n%s: …%q…", i, aName, a[lo:hiA], bName, b[lo:hiB])
}

// checkGolden compares got with testdata/<family>.golden, or rewrites
// the file under -update.
func checkGolden(t *testing.T, family string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", family+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update to create it)", err, t.Name())
	}
	if d := firstDiff(path, want, "got", got); d != "" {
		t.Fatalf("%s artifacts differ from the golden; %s", family, d)
	}
}
