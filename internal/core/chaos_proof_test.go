package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"barbican/internal/policy"
)

// TestChaosVerifySemantics: every converged chaos run proves its
// install rather than assuming it. The rule set the agent installs is
// shown verdict-identical to the pushed policy over the entire packet
// space, and the card's compiled classifier equal to the linear walk
// on it; an install that differs from the push is an
// ErrInstallUnproven error carrying a witness packet.
func TestChaosVerifySemantics(t *testing.T) {
	p, err := RunChaos(ChaosScenario{Device: DeviceADF, FloodRatePPS: 2000, Duration: 2 * time.Second})
	if err != nil {
		t.Fatalf("the proof of a clean install failed: %v", err)
	}
	if !p.Converged {
		t.Fatalf("clean channel did not converge: %+v", p)
	}

	other, err := policy.Parse("deny in proto udp from any to any port 8\ndefault allow\n")
	if err != nil {
		t.Fatal(err)
	}
	err = verifyInstall(ChaosPolicy, other)
	if !errors.Is(err, ErrInstallUnproven) {
		t.Fatalf("a different install proved: err = %v", err)
	}
	if !strings.Contains(err.Error(), "port") {
		t.Errorf("the disproof names no witness packet: %v", err)
	}
}
