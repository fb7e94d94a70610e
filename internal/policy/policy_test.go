package policy_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/policy"
)

const webPolicy = `allow in proto tcp from any to 10.0.0.2/32 port 80
allow out proto tcp from 10.0.0.2/32 port 80 to any
default deny
`

func setup(t *testing.T) (*core.Testbed, *policy.Server, *policy.Agent) {
	t.Helper()
	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceEFW})
	if err != nil {
		t.Fatal(err)
	}
	psk := policy.DeriveKey("test")
	srv := policy.NewServer(tb.PolicyServer, psk)
	agent, err := policy.NewAgent(tb.Target, tb.PolicyServer.IP(), psk)
	if err != nil {
		t.Fatal(err)
	}
	return tb, srv, agent
}

func TestPushInstallsPolicyOnCard(t *testing.T) {
	tb, srv, agent := setup(t)
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	var result error = errors.New("never finished")
	if err := srv.Push("target", tb.Target.IP(), func(err error) { result = err }); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if result != nil {
		t.Fatalf("push outcome: %v", result)
	}
	if agent.InstalledVersion() != 1 {
		t.Errorf("installed version = %d, want 1", agent.InstalledVersion())
	}
	rs := tb.Target.NIC().RuleSet()
	if rs == nil || rs.Len() != 2 {
		t.Fatalf("card rule set = %v", rs)
	}
	audit := srv.Audit()
	if len(audit) != 1 || !audit[0].OK {
		t.Errorf("audit = %v", audit)
	}
}

func TestPushRejectsWrongKey(t *testing.T) {
	tb, _, agent := setup(t)
	evil := policy.NewServer(tb.Attacker, policy.DeriveKey("WRONG"))
	if _, err := evil.SetPolicy("target", "allow both from any to any\ndefault allow\n"); err != nil {
		t.Fatal(err)
	}
	var result error
	if err := evil.Push("target", tb.Target.IP(), func(err error) { result = err }); err != nil {
		t.Fatal(err)
	}
	// Auth failures look like wire corruption to the server, so it
	// retries them — the push settles only after the retry budget.
	if err := tb.Kernel.RunUntil(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if result == nil || !strings.Contains(result.Error(), "authentication") {
		t.Errorf("forged push outcome: %v, want auth failure", result)
	}
	if agent.InstalledVersion() != 0 {
		t.Error("forged policy was installed")
	}
	if got := agent.Stats().AuthFails; got != 5 {
		t.Errorf("AuthFails = %d, want 5 (one per retry attempt)", got)
	}
	if tb.Target.NIC().RuleSet() != nil {
		t.Error("card accepted forged rules")
	}
}

func TestPushRejectsStaleVersion(t *testing.T) {
	tb, srv, agent := setup(t)
	// Install version 2 so a replayed v1 is strictly older.
	for i := 0; i < 2; i++ {
		if _, err := srv.SetPolicy("target", webPolicy); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Push("target", tb.Target.IP(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if agent.InstalledVersion() != 2 {
		t.Fatalf("installed = %d, want 2", agent.InstalledVersion())
	}

	// A second server instance replays version 1; the agent refuses,
	// and a stale rejection is terminal — no retries.
	replay := policy.NewServer(tb.PolicyServer, policy.DeriveKey("test"))
	if _, err := replay.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	var result error
	if err := replay.Push("target", tb.Target.IP(), func(err error) { result = err }); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if result == nil || !strings.Contains(result.Error(), "stale") {
		t.Errorf("replayed push outcome: %v, want stale rejection", result)
	}
	if agent.Stats().StaleDrops != 1 {
		t.Errorf("StaleDrops = %d", agent.Stats().StaleDrops)
	}
}

func TestRePushOfInstalledVersionIsIdempotent(t *testing.T) {
	tb, srv, agent := setup(t)
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	if err := srv.Push("target", tb.Target.IP(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}

	// A second server with the same stored version re-pushes v1 — the
	// lost-OK retry case. The agent acks without reinstalling.
	again := policy.NewServer(tb.PolicyServer, policy.DeriveKey("test"))
	if _, err := again.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	var result error = errors.New("never finished")
	if err := again.Push("target", tb.Target.IP(), func(err error) { result = err }); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if result != nil {
		t.Errorf("idempotent re-push outcome: %v, want success", result)
	}
	st := agent.Stats()
	if st.Installs != 1 || st.IdempotentAcks != 1 || st.StaleDrops != 0 {
		t.Errorf("stats = %+v, want 1 install + 1 idempotent ack", st)
	}
	if v, _, ok := agent.LastGood(); !ok || v != 1 {
		t.Errorf("LastGood = %d, %v", v, ok)
	}
}

func TestPushUpdatesVersion(t *testing.T) {
	tb, srv, agent := setup(t)
	for i := 0; i < 3; i++ {
		if _, err := srv.SetPolicy("target", webPolicy); err != nil {
			t.Fatal(err)
		}
	}
	if _, v, ok := srv.Policy("target"); !ok || v != 3 {
		t.Fatalf("stored version = %d, want 3", v)
	}
	if err := srv.Push("target", tb.Target.IP(), nil); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if agent.InstalledVersion() != 3 {
		t.Errorf("installed = %d, want 3", agent.InstalledVersion())
	}
}

func TestPushToDeadAgentTimesOut(t *testing.T) {
	tb, err := core.NewTestbed(core.TestbedOptions{TargetDevice: core.DeviceEFW})
	if err != nil {
		t.Fatal(err)
	}
	srv := policy.NewServer(tb.PolicyServer, policy.DeriveKey("test"))
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	var result error
	// No agent is listening: the target stack RSTs the connection.
	if err := srv.Push("target", tb.Target.IP(), func(err error) { result = err }); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if result == nil {
		t.Error("push to dead agent reported success")
	}
	// Every attempt is audited (4 retry lines + the terminal failure).
	audit := srv.Audit()
	if len(audit) != 5 {
		t.Fatalf("audit has %d events, want 5 (one per attempt)", len(audit))
	}
	for _, e := range audit {
		if e.OK {
			t.Errorf("audit reported success: %v", e)
		}
	}
	st := srv.Stats()
	if st.Attempts != 5 || st.Retries != 4 || st.Failures != 1 || st.Successes != 0 {
		t.Errorf("server stats = %+v", st)
	}
}

func TestPolicyRequiresValidation(t *testing.T) {
	_, srv, _ := setup(t)
	if _, err := srv.SetPolicy("target", "garbage\n"); err == nil {
		t.Error("invalid policy accepted")
	}
	if err := srv.Push("nobody", core.TargetIP, nil); err == nil {
		t.Error("push without stored policy accepted")
	}
}
