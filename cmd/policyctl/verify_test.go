package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"barbican/internal/fw"
	"barbican/internal/fw/sem"
	"barbican/internal/nic"
	"barbican/internal/policy"
)

func writePolicy(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const verifyV1 = `default deny
allow in proto tcp from any to 10.0.0.2/32 port 443
allow in proto tcp from any to 10.0.0.2/32 port 80
`

const verifyV2 = `default deny
allow in proto tcp from any to 10.0.0.2/32 port 443
deny in proto tcp from 198.51.100.0/24 to any
allow in proto tcp from any to 10.0.0.2/32 port 80
`

func TestVerifySingle(t *testing.T) {
	if err := run(io.Discard, []string{"verify", "-"}); err != nil {
		t.Fatalf("verify oracle: %v", err)
	}
	p := writePolicy(t, "v1.txt", verifyV1)
	if err := run(io.Discard, []string{"verify", p}); err != nil {
		t.Fatalf("verify v1: %v", err)
	}
}

// TestVerifyOracleOutput runs `policyctl verify -` in process and holds
// its output to the line the README shows for it.
func TestVerifyOracleOutput(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, []string{"verify", "-"}); err != nil {
		t.Fatalf("verify oracle: %v", err)
	}
	const want = "ok: compiled classifier == linear walk over all 93 atomic regions (32 rules)\n"
	if out.String() != want {
		t.Errorf("verify - printed %q, want %q", out.String(), want)
	}
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(readme, []byte("\n"+want)) {
		t.Errorf("README.md does not show the line verify - prints: %q", want)
	}
}

func TestVerifyGeneratedCorpus(t *testing.T) {
	if err := run(io.Discard, []string{"verify", "-generate", "4", "-seed", "11", "-rules", "12"}); err != nil {
		t.Fatalf("verify corpus: %v", err)
	}
}

func TestVerifyEquivalence(t *testing.T) {
	a := writePolicy(t, "a.txt", verifyV1)
	b := writePolicy(t, "b.txt", verifyV1)
	if err := run(io.Discard, []string{"verify", a, b}); err != nil {
		t.Fatalf("identical policies reported inequivalent: %v", err)
	}
	c := writePolicy(t, "c.txt", verifyV2)
	if err := run(io.Discard, []string{"verify", a, c}); err == nil {
		t.Fatal("inequivalent policies reported equivalent")
	}
}

func TestVerifyStrictRejectsReorder(t *testing.T) {
	a := writePolicy(t, "a.txt", "allow in proto tcp from any to any\nallow in from any to any\ndefault deny\n")
	b := writePolicy(t, "b.txt", "allow in from any to any\nallow in proto tcp from any to any\ndefault deny\n")
	if err := run(io.Discard, []string{"verify", a, b}); err != nil {
		t.Fatalf("action-equivalent reorder rejected without -strict: %v", err)
	}
	if err := run(io.Discard, []string{"verify", "-strict", a, b}); err == nil {
		t.Fatal("-strict accepted a reorder that changes deciding rules")
	}
}

func TestDiffSubcommand(t *testing.T) {
	a := writePolicy(t, "a.txt", verifyV1)
	b := writePolicy(t, "b.txt", verifyV2)
	if err := run(io.Discard, []string{"diff", a, b}); err != nil {
		t.Fatalf("diff: %v", err)
	}
	if err := run(io.Discard, []string{"diff", "-json", a, b}); err != nil {
		t.Fatalf("diff -json: %v", err)
	}
	if err := run(io.Discard, []string{"diff", a}); err == nil {
		t.Fatal("diff with one file accepted")
	}
}

func TestLintExact(t *testing.T) {
	// The cross-class case: a plain allow-out wildcard makes the VPG
	// seal rule dead. The finding is a warning (redundant), not an
	// error, so lint exits 0 — but on a shadowed variant it must exit 1.
	text := "allow out from any to any\nallow out vpg g from 10.0.0.0/8 to any\ndefault deny\n"
	p := writePolicy(t, "cross.txt", text)
	if err := run(io.Discard, []string{"lint", p, "-depth-warn", "0"}); err != nil {
		t.Fatalf("lint on redundant-only policy: %v", err)
	}
	shadow := "allow out from any to any\ndeny out proto tcp from 10.0.0.0/8 to any\ndefault deny\n"
	sp := writePolicy(t, "shadow.txt", shadow)
	if err := run(io.Discard, []string{"lint", sp, "-depth-warn", "0"}); err == nil {
		t.Fatal("lint missed a shadowed rule")
	}
}

// TestLintStateful: a stateless deny ahead of stateful allows shadows
// them under every connection state, so lint must exit 1.
func TestLintStateful(t *testing.T) {
	text := "default allow\n" +
		"deny in proto tcp from any to any\n" +
		"allow in proto tcp from any to any port 80 state new\n" +
		"allow in proto tcp from any to any state established\n"
	p := writePolicy(t, "stateful.txt", text)
	err := run(io.Discard, []string{"lint", p})
	if err == nil || err.Error() != "2 error-severity finding(s)" {
		t.Fatalf("lint = %v, want rules 2 and 3 reported shadowed", err)
	}
}

// TestDiffWitnessReplaysThroughExplain is the acceptance criterion:
// the witness packet the semantic diff emits for a constructed V1->V2
// delta must replay through nic.Explain on both versions with exactly
// the verdicts the diff claims.
func TestDiffWitnessReplaysThroughExplain(t *testing.T) {
	v1, err := policy.Parse(verifyV1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := policy.Parse(verifyV2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sem.Diff(v1, v2, sem.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Equivalent || len(res.Witnesses) == 0 {
		t.Fatalf("constructed delta produced no witnesses: %+v", res)
	}
	profile := nic.EFW()
	sawActionChange := false
	for _, w := range res.Witnesses {
		e1 := nic.Explain(profile, v1, w.Packet, w.Dir, "none")
		e2 := nic.Explain(profile, v2, w.Packet, w.Dir, "none")
		if e1.Action != w.From.Action || e1.RuleIndex != w.From.Index {
			t.Fatalf("witness %v: V1 explain verdict %v/%d, diff claimed %v",
				w, e1.Action, e1.RuleIndex, w.From)
		}
		if e2.Action != w.To.Action || e2.RuleIndex != w.To.Index {
			t.Fatalf("witness %v: V2 explain verdict %v/%d, diff claimed %v",
				w, e2.Action, e2.RuleIndex, w.To)
		}
		if w.Class == sem.RegionAllowToDeny {
			sawActionChange = true
			if e1.Action != fw.Allow || e2.Action != fw.Deny {
				t.Fatalf("allow-to-deny witness replays as %v -> %v", e1.Action, e2.Action)
			}
		}
	}
	if !sawActionChange {
		t.Fatal("delta that blocks a /24 produced no allow-to-deny witness")
	}
}
