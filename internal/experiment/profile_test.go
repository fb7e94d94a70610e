package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"barbican/internal/obs/profile"
)

// costArtifacts runs the quick sweep of experiment exp with profiling
// on and returns the bytes of every per-point cost-domain profile,
// keyed by file name.
func costArtifacts(t *testing.T, exp string, sweep func(Config) (*Figure, error), parallel int) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	cfg := Config{
		Quick:      true,
		Duration:   200 * time.Millisecond,
		Parallel:   parallel,
		ProfileDir: dir,
	}
	if _, err := sweep(cfg); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, exp, "*.cost.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("%s wrote no cost profiles", exp)
	}
	files := make(map[string][]byte, len(paths))
	for _, path := range paths {
		if files[filepath.Base(path)], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestFig2NGMatchCostFlat is EXT1's flat-cost claim seen in the cost
// profile: NextGen's target pays the same match units per admitted
// packet at 1, 64 and 512 rules, while the EFW's grow with depth.
func TestFig2NGMatchCostFlat(t *testing.T) {
	files := costArtifacts(t, "fig2ng", Fig2NextGen, 2)
	perPacket := func(device string, depth int) float64 {
		t.Helper()
		name := fmt.Sprintf("%s_depth-%d.cost.pprof", device, depth)
		b, ok := files[name]
		if !ok {
			t.Fatalf("fig2ng wrote no %s", name)
		}
		d, err := profile.ReadPprof(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var match, packets int64
		for _, s := range d.Samples {
			if !strings.HasPrefix(s.Stack[0], "target ") {
				continue
			}
			switch s.Stack[2] {
			case "match":
				match += s.Values[0]
			case "parse":
				packets += s.Values[1]
			}
		}
		if packets == 0 {
			t.Fatalf("%s: the target admitted no packets", name)
		}
		return float64(match) / float64(packets)
	}
	ng1, ng64, ng512 := perPacket("nextgenfw", 1), perPacket("nextgenfw", 64), perPacket("nextgenfw", 512)
	if ng1 == 0 || ng64 != ng1 || ng512 != ng1 {
		t.Errorf("NextGen match units per packet at depths 1/64/512 = %.3f/%.3f/%.3f, want one flat nonzero value", ng1, ng64, ng512)
	}
	efw1, efw64, efw512 := perPacket("efw", 1), perPacket("efw", 64), perPacket("efw", 512)
	if !(efw1 < efw64 && efw64 < efw512) {
		t.Errorf("EFW match units per packet at depths 1/64/512 = %.3f/%.3f/%.3f, want growth with depth", efw1, efw64, efw512)
	}
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
	p1 := costArtifacts(t, "fig2", Fig2, 1)
	p4 := costArtifacts(t, "fig2", Fig2, 4)
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
	for name, b := range costArtifacts(t, "fig2", Fig2, 2) {
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
