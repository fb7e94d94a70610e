package sem

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/generate.golden from Generate")

// TestGenerateCorpusGolden pins the corpus CI proves with policyctl
// verify -generate (seed 1: 16 sets of 24 rules; seed 2: 8 sets of 64
// rules), so a change to the generator cannot silently swap the sets
// the proofs run over.
func TestGenerateCorpusGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		seed        int64
		sets, rules int
	}{{1, 16, 24}, {2, 8, 64}} {
		r := rand.New(rand.NewSource(c.seed))
		for i := 0; i < c.sets; i++ {
			rs := Generate(r, GenOptions{Rules: c.rules})
			fmt.Fprintf(&b, "# seed %d set %d\n%s", c.seed, i, rs)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "generate.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestGenerateCorpusGolden -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("generated corpus differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("generated corpus differs from %s in length: %d vs %d lines", path, len(gl), len(wl))
	}
}
