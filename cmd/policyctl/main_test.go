package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckValidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.txt")
	text := "allow in proto tcp from any to any port 80\ndefault deny\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"check", path}); err != nil {
		t.Fatalf("check: %v", err)
	}
}

func TestCheckInvalidFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("nonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"check", path}); err == nil {
		t.Error("invalid policy accepted")
	}
}

func TestCheckMissingArgs(t *testing.T) {
	if err := run(io.Discard, []string{"check"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(io.Discard, []string{"frobnicate"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestLintSubcommand(t *testing.T) {
	clean := filepath.Join(t.TempDir(), "clean.txt")
	if err := os.WriteFile(clean, []byte("allow in proto tcp from any to any port 80\ndefault deny\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"lint", clean}); err != nil {
		t.Fatalf("lint clean: %v", err)
	}
	for _, device := range []string{"iptables", "stateful", "vpg"} {
		if err := run(io.Discard, []string{"lint", clean, "-device", device}); err != nil {
			t.Errorf("lint -device %s: %v", device, err)
		}
	}
	if err := run(io.Discard, []string{"lint", clean, "-device", "3com"}); err == nil {
		t.Error("lint accepted an unknown device")
	}
	// iptables rules are priced by the host firewall that enforces
	// them: 6e6 units/s ÷ (60 + 2 × 2.2) units at depth 2.
	deep := filepath.Join(t.TempDir(), "deep.txt")
	text := "allow in proto tcp from any to any port 80\n" +
		"allow in proto udp from any to any port 53\n" +
		"default deny\n"
	if err := os.WriteFile(deep, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := lint(&out, deep, []string{"-device", "iptables", "-depth-warn", "1"}); err != nil {
		t.Fatalf("lint -device iptables: %v", err)
	}
	if want := "  iptables sustains ≈ 93168 pkt/s for packets walking 2 rules\n"; !strings.Contains(out.String(), want) {
		t.Errorf("lint -device iptables output missing %q:\n%s", want, out.String())
	}
	shadowed := filepath.Join(t.TempDir(), "shadowed.txt")
	text = "deny in from 10.0.0.0/8 to any\n" +
		"allow in proto tcp from 10.1.0.0/16 to any port 80\n" +
		"default deny\n"
	if err := os.WriteFile(shadowed, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, []string{"lint", shadowed}); err == nil {
		t.Error("lint of shadowed policy reported no error")
	}
}

func TestOracleSubcommand(t *testing.T) {
	if err := run(io.Discard, []string{"oracle"}); err != nil {
		t.Fatalf("oracle: %v", err)
	}
}

// TestDemoPushesBuiltinPolicy: every host installs the built-in policy,
// and two demo runs print the same bytes — the same push order, the
// same audit times.
func TestDemoPushesBuiltinPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation")
	}
	var first, second bytes.Buffer
	if err := demo(&first, "-"); err != nil {
		t.Fatal(err)
	}
	if err := demo(&second, "-"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two demo runs differ:\n%s\n---\n%s", first.Bytes(), second.Bytes())
	}
	out := first.String()
	if got := strings.Count(out, ": OK installed"); got != 3 {
		t.Errorf("%d OK pushes, want 3:\n%s", got, out)
	}
	// Pushes leave in fleet order.
	c, d, tg := strings.Index(out, `push "client"`), strings.Index(out, `push "db-server"`), strings.Index(out, `push "target"`)
	if !(c < d && d < tg) {
		t.Errorf("pushes out of fleet order:\n%s", out)
	}
}
