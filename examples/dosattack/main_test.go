package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from the example's output")

// TestStdout pins what the example prints, byte for byte: the
// simulation is deterministic, so a changed count or rate is a diff
// against testdata/stdout.golden. After a deliberate change,
// `go test ./examples/... -update` rewrites the goldens.
func TestStdout(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from %s (rerun with -update after a deliberate change)\ngot:\n%s\nwant:\n%s",
			golden, got.Bytes(), want)
	}
}
