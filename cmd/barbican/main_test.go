package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run(io.Discard, []string{"figure9"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
}

func TestRunRequiresExactlyOneArgument(t *testing.T) {
	if err := run(io.Discard, nil); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run(io.Discard, []string{"fig2", "fig3a"}); err == nil {
		t.Error("two arguments accepted")
	}
}

func TestRunRejectsBadFlag(t *testing.T) {
	if err := run(io.Discard, []string{"-bogus", "fig2"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunQuickAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := run(io.Discard, []string{"-quick", "-duration", "500ms", "ablations"}); err != nil {
		t.Fatalf("run ablations: %v", err)
	}
}

// TestExplainOutput: explain names the matched rule and the depth walked,
// for the synthetic depth rule set and for a policy file.
func TestExplainOutput(t *testing.T) {
	for _, tt := range []struct {
		args []string
		want []string
	}{
		{
			args: []string{"-device", "efw", "-depth", "64"},
			want: []string{"rule 64", "traversing 64 rule(s)"},
		},
		{
			args: []string{"-policy", "-", "-dport", "1521", "-src", "10.0.0.7"},
			want: []string{"allow by rule 4 after traversing 4 rule(s)", "port 1521"},
		},
		{
			// iptables filters in the host: the host firewall's profile
			// prices the walk (60 + 64 × 2.2 units), and the service
			// time is per packet, not "on card".
			args: []string{"-device", "iptables", "-depth", "64"},
			want: []string{"device: iptables (capacity 6000000 units/s, base 60, per-rule 2.2)",
				"traversing 64 rule(s)", "total          200.8 units → 33.466µs per packet, ≈ 29880 pkt/s sustainable"},
		},
	} {
		var out bytes.Buffer
		if err := runExplain(&out, tt.args); err != nil {
			t.Fatalf("explain %v: %v", tt.args, err)
		}
		for _, want := range tt.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("explain %v output missing %q:\n%s", tt.args, want, out.String())
			}
		}
	}
}

func TestExplainSubcommandDispatch(t *testing.T) {
	if err := run(io.Discard, []string{"explain", "-bogus"}); err == nil {
		t.Error("explain accepted unknown flag")
	}
	if err := run(io.Discard, []string{"explain", "-device", "warp-drive"}); err == nil || !strings.Contains(err.Error(), "unknown device") {
		t.Errorf("err = %v", err)
	}
}
