package profile

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// goToolPprof runs `go tool pprof args...` — the reader the docs point
// at for every profile -profile-out writes — and returns its output.
// It skips only when the go binary itself is absent: a toolchain that
// has go always ships pprof, so any other failure is a test failure.
func goToolPprof(t *testing.T, args ...string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go binary not in PATH")
	}
	out, err := exec.Command(goBin, append([]string{"tool", "pprof"}, args...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// writeProfile writes d as a gzipped pprof file in a temp dir.
func writeProfile(t *testing.T, d *Data, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := d.WritePprofFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// topRow is one node of `pprof -top`: its flat and cumulative values
// as printed (e.g. "250units", or "0").
type topRow struct{ flat, cum string }

var topRowRE = regexp.MustCompile(`^\s*(\S+)\s+\S+\s+\S+\s+(\S+)\s+\S+\s+(.+)$`)

// parseTop maps each node name of a `pprof -top` listing to its row,
// keeping the listing order in names.
func parseTop(t *testing.T, out string) (rows map[string]topRow, names []string) {
	t.Helper()
	rows = map[string]topRow{}
	_, table, ok := strings.Cut(out, "cum%\n")
	if !ok {
		t.Fatalf("no -top table header in:\n%s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		if line == "" {
			continue
		}
		m := topRowRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsed -top row %q in:\n%s", line, out)
		}
		rows[m[3]] = topRow{flat: m[1], cum: m[2]}
		names = append(names, m[3])
	}
	return rows, names
}

// TestPprofToolParses feeds an exported profile to `go tool pprof -raw`
// and checks the decoded content survives.
func TestPprofToolParses(t *testing.T) {
	raw := goToolPprof(t, "-raw", writeProfile(t, testProfile(), "card.cost.pprof"))
	for _, want := range []string{
		"cost/units",
		"packets/count",
		"match",
		"rule 001: allow tcp",
		"target (EFW)",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("pprof -raw output missing %q:\n%s", want, raw)
		}
	}
}

// TestPprofToolTop: `go tool pprof -top [-cum]` on a card-cost profile
// shows its comment, its unit total and every phase and rule frame with
// its exact units, and -cum ranks the match phase above parse.
func TestPprofToolTop(t *testing.T) {
	path := writeProfile(t, testProfile(), "card.cost.pprof")
	out := goToolPprof(t, "-top", path)
	for _, want := range []string{
		"test profile",
		"Type: cost",
		"Showing nodes accounting for 425units, 100% of 425units total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pprof -top missing %q:\n%s", want, out)
		}
	}
	rows, _ := parseTop(t, out)
	for name, want := range map[string]topRow{
		"target (EFW)":        {flat: "0", cum: "425units"},
		"rx":                  {flat: "0", cum: "425units"},
		"parse":               {flat: "100units", cum: "100units"},
		"match":               {flat: "0", cum: "250units"},
		"rule 001: allow tcp": {flat: "250units", cum: "250units"},
		"crypto.open":         {flat: "75units", cum: "75units"},
	} {
		if got, ok := rows[name]; !ok || got != want {
			t.Errorf("pprof -top row %q = %+v (present %v), want %+v\n%s", name, got, ok, want, out)
		}
	}

	_, names := parseTop(t, goToolPprof(t, "-top", "-cum", path))
	if mi, pi := slices.Index(names, "match"), slices.Index(names, "parse"); mi < 0 || pi < 0 || mi > pi {
		t.Errorf("pprof -top -cum does not rank match above parse: %v", names)
	}
}

// TestPprofToolDiff: `go tool pprof -top -diff_base OLD NEW` reports
// exactly the units NEW added, on the frames that gained them, and
// nothing for a profile diffed against itself.
func TestPprofToolDiff(t *testing.T) {
	oldPath := writeProfile(t, testProfile(), "old.cost.pprof")
	grown := testProfile()
	grown.Add([]string{"target (EFW)", "rx", "match", "rule 001: allow tcp"}, 100, 20)
	newPath := writeProfile(t, grown, "new.cost.pprof")

	out := goToolPprof(t, "-top", "-diff_base", oldPath, newPath)
	if want := "Showing nodes accounting for 100units, 23.53% of 425units total"; !strings.Contains(out, want) {
		t.Errorf("pprof -diff_base missing %q:\n%s", want, out)
	}
	rows, _ := parseTop(t, out)
	for name, want := range map[string]topRow{
		"rule 001: allow tcp": {flat: "100units", cum: "100units"},
		"match":               {flat: "0", cum: "100units"},
		"rx":                  {flat: "0", cum: "100units"},
	} {
		if got, ok := rows[name]; !ok || got != want {
			t.Errorf("pprof -diff_base row %q = %+v (present %v), want %+v\n%s", name, got, ok, want, out)
		}
	}
	for _, unchanged := range []string{"parse", "crypto.open"} {
		if _, ok := rows[unchanged]; ok {
			t.Errorf("pprof -diff_base lists unchanged frame %q:\n%s", unchanged, out)
		}
	}

	same, _ := parseTop(t, goToolPprof(t, "-top", "-diff_base", oldPath, oldPath))
	if len(same) != 0 {
		t.Errorf("self-diff lists %d frames, want none: %v", len(same), same)
	}
}
