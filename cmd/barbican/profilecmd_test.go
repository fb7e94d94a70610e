package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"barbican/internal/obs/profile"
)

// writeTestProfiles writes a small cost profile plus a grown variant
// for diffing, returning their paths.
func writeTestProfiles(t *testing.T) (pprofPath, grownPath string) {
	t.Helper()
	dir := t.TempDir()
	d := profile.NewData(profile.CostSampleTypes, "cost")
	d.Add([]string{"target (EFW)", "rx", "parse"}, 100, 50)
	d.Add([]string{"target (EFW)", "rx", "match", "rule 001"}, 300, 50)

	pprofPath = filepath.Join(dir, "run.cost.pprof")
	if err := d.WritePprofFile(pprofPath); err != nil {
		t.Fatal(err)
	}

	d.Add([]string{"target (EFW)", "rx", "match", "rule 001"}, 200, 0)
	grownPath = filepath.Join(dir, "grown.cost.pprof")
	if err := d.WritePprofFile(grownPath); err != nil {
		t.Fatal(err)
	}
	return pprofPath, grownPath
}

func TestProfileCmdSummary(t *testing.T) {
	pprofPath, _ := writeTestProfiles(t)
	var out bytes.Buffer
	if err := runProfileCmd(&out, []string{"-top", "5", pprofPath}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"Phases:", "Top 5 stacks:", "target (EFW);rx;match", "400"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestProfileCmdDiff(t *testing.T) {
	pprofPath, grownPath := writeTestProfiles(t)
	var out bytes.Buffer
	if err := runProfileCmd(&out, []string{"-diff", pprofPath, grownPath}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"total 400 -> 600 (+200)", "Phase deltas:", "+200", "rule 001"} {
		if !strings.Contains(s, want) {
			t.Errorf("diff missing %q:\n%s", want, s)
		}
	}
}

func TestProfileCmdArgErrors(t *testing.T) {
	pprofPath, grownPath := writeTestProfiles(t)
	var out bytes.Buffer
	if err := runProfileCmd(&out, nil); err == nil {
		t.Error("no args: want error")
	}
	if err := runProfileCmd(&out, []string{pprofPath, grownPath}); err == nil {
		t.Error("two args without -diff: want error")
	}
	if err := runProfileCmd(&out, []string{"-diff", pprofPath}); err == nil {
		t.Error("-diff with one arg: want error")
	}
	if err := runProfileCmd(&out, []string{filepath.Join(t.TempDir(), "absent.pprof")}); err == nil {
		t.Error("missing file: want error")
	}
}

// TestProfileSubcommandDispatch checks `barbican profile ...` routes
// through run's dispatcher, like explain.
func TestProfileSubcommandDispatch(t *testing.T) {
	if err := run(io.Discard, []string{"profile"}); err == nil {
		t.Error("bare profile subcommand: want usage error")
	}
}
