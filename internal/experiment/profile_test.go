package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"barbican/internal/obs/profile"
)

// fig2CostArtifacts runs the quick Fig. 2 sweep with profiling on and
// returns the bytes of every per-point cost-domain profile, keyed by
// file name.
func fig2CostArtifacts(t *testing.T, parallel int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		Quick:      true,
		Duration:   200 * time.Millisecond,
		Parallel:   parallel,
		ProfileDir: dir,
	}
	if _, err := Fig2(cfg); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "fig2", "*.cost.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("fig2 wrote no cost profiles")
	}
	files := make(map[string][]byte, len(paths))
	for _, path := range paths {
		if files[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestFig2CostProfileParallelByteIdentity is the determinism golden:
// the cost domain is exact (every admitted packet recorded, per-point
// private kernels), so every per-point Fig. 2 cost profile must be
// byte-identical at any -parallel setting. Wall-domain kernel profiles
// are excluded — their nanosecond values are measured.
func TestFig2CostProfileParallelByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full profiled sweep; skipped in -short")
	}
	p1 := fig2CostArtifacts(t, 1)
	p4 := fig2CostArtifacts(t, 4)
	if len(p1) != len(p4) {
		t.Errorf("%d cost profiles at -parallel 1, %d at 4", len(p1), len(p4))
	}
	for name, b1 := range p1 {
		if b4, ok := p4[name]; !ok || !bytes.Equal(b1, b4) {
			t.Errorf("%s differs between -parallel 1 and 4 (present at 4: %v)", name, ok)
		}
	}
}

// TestFig2CostProfileContent checks the attribution on a real sweep,
// summed over its per-point profiles as go tool pprof merges them:
// every profile decodes, phases carry the bulk of the units, and
// per-rule match cost is visibly linear in rule depth.
func TestFig2CostProfileContent(t *testing.T) {
	if testing.Short() {
		t.Skip("full profiled sweep; skipped in -short")
	}
	d := profile.NewData(profile.CostSampleTypes, "cost")
	for name, b := range fig2CostArtifacts(t, 2) {
		part, err := profile.ReadPprof(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range part.Samples {
			d.Add(s.Stack, s.Values...)
		}
	}
	if d.Total() == 0 {
		t.Fatal("summed cost profile is empty")
	}
	// Every sample belongs to a named phase.
	phases := map[string]int64{}
	for _, s := range d.Samples {
		if len(s.Stack) < 3 {
			t.Fatalf("cost stack too shallow: %v", s.Stack)
		}
		phases[s.Stack[2]] += s.Values[0]
	}
	for name := range phases {
		switch name {
		case "parse", "match", "crypto.seal", "crypto.open", "verdict":
		default:
			t.Errorf("unknown phase frame %q", name)
		}
	}
	if phases["match"] == 0 || phases["parse"] == 0 {
		t.Errorf("phase rollup missing parse/match units: %v", phases)
	}

	// Per-rule linearity: on the EFW target rx side, rule 1 is examined
	// by every filtered packet; deeper rules by monotonically fewer or
	// equal (depth-1 sweeps never reach rule 16, 64-rule sweeps do).
	// Collect per-rule examined counts for the EFW target card.
	perRule := map[string]int64{}
	for _, s := range d.Samples {
		if len(s.Stack) == 4 && strings.Contains(s.Stack[0], "EFW") &&
			s.Stack[1] == "rx" && s.Stack[2] == "match" {
			perRule[s.Stack[3]] += s.Values[1]
		}
	}
	if len(perRule) == 0 {
		t.Fatal("no per-rule EFW match samples in summed profile")
	}
	// Sum across frames: the same rule index carries different DSL text
	// in different depth configurations (pad vs action rule), so "rule
	// 001" appears as several distinct frames.
	rule := func(frame string) int64 {
		var total int64
		for f, v := range perRule {
			if strings.HasPrefix(f, frame) {
				total += v
			}
		}
		return total
	}
	r1, r16, r64 := rule("rule 001"), rule("rule 016"), rule("rule 064")
	if !(r1 >= r16 && r16 >= r64 && r1 > 0) {
		t.Errorf("per-rule examined counts not monotone in depth: r1=%d r16=%d r64=%d", r1, r16, r64)
	}
	// Quick mode sweeps depths {1,16,64}: rule 1 sees all three
	// configurations' traffic, rule 16 only two, rule 64 only one — the
	// linear-in-depth structure must be strict, not degenerate.
	if !(r1 > r16 && r16 > r64 && r64 > 0) {
		t.Errorf("depth sweep structure missing from rule counts: r1=%d r16=%d r64=%d", r1, r16, r64)
	}
}

// TestFloodTimelineWritesProfiles: the timeline experiment honours
// ProfileDir like the rest of the bandwidth family: every device's run
// leaves cost and kernel profiles under timeline/.
func TestFloodTimelineWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Quick: true, Duration: 200 * time.Millisecond, ProfileDir: dir}
	if _, err := FloodTimeline(cfg); err != nil {
		t.Fatal(err)
	}
	for _, device := range []string{"standard_nic", "adf"} {
		for _, ext := range []string{".cost.pprof", ".kernel.pprof"} {
			if _, err := os.Stat(filepath.Join(dir, "timeline", device+ext)); err != nil {
				t.Error(err)
			}
		}
	}
	// The filtering card does the run's firewall work, so its cost
	// profile cannot be empty.
	image, err := os.ReadFile(filepath.Join(dir, "timeline", "adf.cost.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := profile.ReadPprof(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	if d.Total() == 0 {
		t.Error("ADF cost profile attributes no units")
	}
}
