package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite README.md's barbican output samples from their commands")

// readmeUnchecked names the flags whose samples are not run: they write
// artifacts to a path of the reader's choosing. Wall-clock lines are
// dropped from every run's output instead (withoutWallClock).
var readmeUnchecked = []string{"-metrics-out", "-trace-out", "-profile-out", "-pcap-out"}

// TestREADMESamples runs every README fenced block whose first line is
// "$ go run ./cmd/barbican …" and that shows output, and requires the
// output to be what the command prints. -update rewrites the blocks.
func TestREADMESamples(t *testing.T) {
	const path, prompt = "../../README.md", "$ go run ./cmd/barbican "
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(src), "\n")
	checked := 0
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "```") || i+1 == len(lines) || !strings.HasPrefix(lines[i+1], prompt) {
			continue
		}
		// The command, with its "\" continuations, then the output up to
		// the closing fence.
		at, cmd, j := i+2, "", i+1
		for ; ; j++ {
			l := strings.TrimSpace(lines[j])
			cmd += " " + strings.TrimSuffix(l, `\`)
			if !strings.HasSuffix(l, `\`) {
				break
			}
		}
		start, end := j+1, j+1
		for !strings.HasPrefix(lines[end], "```") {
			end++
		}
		want := strings.Join(lines[start:end], "")
		i = end
		if want == "" || strings.Contains("\n"+want, "\n$ ") || containsAny(cmd, readmeUnchecked) {
			continue // no output shown, several commands, or artifacts written
		}
		args := strings.Fields(strings.TrimPrefix(strings.TrimSpace(cmd), prompt))
		var out bytes.Buffer
		if err := run(&out, args); err != nil {
			t.Errorf("README.md:%d%s: %v", at, cmd, err)
			continue
		}
		checked++
		t.Logf("README.md:%d%s", at, cmd)
		got := withoutWallClock(out.String())
		switch {
		case got == want:
		case *update:
			repl := strings.SplitAfter(strings.TrimSuffix(got, "\n")+"\n", "\n")
			repl = repl[:len(repl)-1] // the empty string after the last newline
			lines = append(lines[:start], append(repl, lines[end:]...)...)
			i = start + len(repl)
		default:
			t.Errorf("README.md:%d%s prints\n%s\nbut the sample shows\n%s", at, cmd, got, want)
		}
	}
	if checked == 0 {
		t.Fatal("found no barbican output sample in README.md")
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
