package profile

import (
	"fmt"
	"os"
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
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WritePprof(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
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

var (
	rawSampleRE   = regexp.MustCompile(`^\s*(\d+)\s+(\d+): ([\d ]+)$`)
	rawLocationRE = regexp.MustCompile(`^\s*(\d+): 0x[0-9a-f]+ M=\d+ (.+) \S+:\d+:\d+ s=\d+$`)
)

// parseRaw maps each root-first stack of a two-column `pprof -raw`
// listing to its values, keyed as stackKey.
func parseRaw(t *testing.T, out string) map[string][2]int64 {
	t.Helper()
	_, rest, ok := strings.Cut(out, "\nSamples:\n")
	if !ok {
		t.Fatalf("no Samples section in:\n%s", out)
	}
	samples, rest, ok := strings.Cut(rest, "\nLocations\n")
	if !ok {
		t.Fatalf("no Locations section in:\n%s", out)
	}
	locations, _, _ := strings.Cut(rest, "\nMappings\n")
	names := map[string]string{}
	for _, line := range strings.Split(locations, "\n") {
		if m := rawLocationRE.FindStringSubmatch(line); m != nil {
			names[m[1]] = m[2]
		}
	}
	got := map[string][2]int64{}
	for _, line := range strings.Split(samples, "\n")[1:] { // skip the column header
		m := rawSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsed -raw sample %q in:\n%s", line, out)
		}
		ids := strings.Fields(m[3])
		stack := make([]string, len(ids))
		for i, id := range ids { // -raw lists leaf first
			name, ok := names[id]
			if !ok {
				t.Fatalf("sample %q names unknown location %s in:\n%s", line, id, out)
			}
			stack[len(ids)-1-i] = name
		}
		var v [2]int64
		fmt.Sscan(m[1], &v[0])
		fmt.Sscan(m[2], &v[1])
		key := stackKey(stack)
		got[key] = [2]int64{got[key][0] + v[0], got[key][1] + v[1]}
	}
	return got
}

// TestPprofToolMerge: `go tool pprof` given several cost profiles — the
// per-point files of one experiment — merges them: every stack's values
// are the sum of that stack's values in each file as ReadPprof decodes
// it, stacks unique to one file included.
func TestPprofToolMerge(t *testing.T) {
	grown := testProfile()
	grown.Add([]string{"target (EFW)", "rx", "match", "rule 001: allow tcp"}, 100, 20)
	grown.Add([]string{"target (EFW)", "rx", "match", "rule 002: deny udp"}, 30, 5)
	paths := []string{
		writeProfile(t, testProfile(), "a.cost.pprof"),
		writeProfile(t, grown, "b.cost.pprof"),
	}
	want := map[string][2]int64{}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ReadPprof(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range d.Samples {
			key := stackKey(s.Stack)
			want[key] = [2]int64{want[key][0] + s.Values[0], want[key][1] + s.Values[1]}
		}
	}
	got := parseRaw(t, goToolPprof(t, append([]string{"-raw"}, paths...)...))
	if len(got) != len(want) {
		t.Errorf("merged -raw lists %d stacks, want %d", len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Errorf("stack %q = %v (present %v), want %v", strings.ReplaceAll(key, stackSep, ";"), g, ok, w)
		}
	}
}
