package policy_test

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/link"
	"barbican/internal/policy"
)

// TestPushDoneExactlyOnceOnSuccess: the happy path invokes done once,
// with nil.
func TestPushDoneExactlyOnceOnSuccess(t *testing.T) {
	tb, srv, agent := setup(t)
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	calls := 0
	var last error
	if err := srv.Push("target", tb.Target.IP(), func(err error) { calls++; last = err }); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done invoked %d times, want 1", calls)
	}
	if last != nil {
		t.Errorf("done error: %v", last)
	}
	if agent.InstalledVersion() != 1 {
		t.Errorf("installed = %d", agent.InstalledVersion())
	}
}

// TestPushDoneExactlyOnceOnTotalLoss: with the management link eating
// every frame, each attempt times out; done fires exactly once, with
// the terminal error, after the retry budget is spent.
func TestPushDoneExactlyOnceOnTotalLoss(t *testing.T) {
	tb, srv, agent := setup(t)
	link.AttachFaults(tb.PolicyServer.NIC().Endpoint(), faults.Plan{Loss: 1}, 1)
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	calls := 0
	var last error
	if err := srv.Push("target", tb.Target.IP(), func(err error) { calls++; last = err }); err != nil {
		t.Fatal(err)
	}
	// 5 attempts x 1s timeout + backoffs (100ms..1.6s with jitter) < 15s.
	if err := tb.Kernel.RunUntil(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done invoked %d times, want 1", calls)
	}
	if last == nil {
		t.Fatal("push through a dead link reported success")
	}
	if agent.InstalledVersion() != 0 {
		t.Errorf("installed = %d, want 0", agent.InstalledVersion())
	}
	st := srv.Stats()
	if st.Attempts != 5 || st.Failures != 1 || st.Successes != 0 {
		t.Errorf("server stats = %+v", st)
	}
}

// TestPushDoneExactlyOnceAcrossAgentRestart: the agent is down for the
// first attempts (connection refused) and comes back mid-retry; a later
// attempt succeeds and done fires exactly once, with nil.
func TestPushDoneExactlyOnceAcrossAgentRestart(t *testing.T) {
	tb, srv, agent := setup(t)
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	agent.Close()

	calls := 0
	var last error
	if err := srv.Push("target", tb.Target.IP(), func(err error) { calls++; last = err }); err != nil {
		t.Fatal(err)
	}
	// Bring a fresh agent up while the server is still backing off
	// (refused attempts back off 100ms, 200ms, 400ms, 800ms — the last
	// attempt fires around t=1.5s).
	var agent2 *policy.Agent
	tb.Kernel.After(time.Second, func() {
		var err error
		agent2, err = policy.NewAgent(tb.Target, tb.PolicyServer.IP(), policy.DeriveKey("test"))
		if err != nil {
			t.Errorf("restart agent: %v", err)
		}
	})
	if err := tb.Kernel.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done invoked %d times, want 1", calls)
	}
	if last != nil {
		t.Errorf("done error after agent came back: %v", last)
	}
	if agent2 == nil || agent2.InstalledVersion() != 1 {
		t.Fatalf("restarted agent did not install the policy")
	}
	st := srv.Stats()
	if st.Successes != 1 || st.Retries == 0 {
		t.Errorf("server stats = %+v, want a success after retries", st)
	}
}

// TestPushLegacyNoRetryStalls documents the pre-retry behavior that
// PushOptions{MaxAttempts: 1} preserves: one shot, and a dead agent
// means a terminal failure instead of convergence.
func TestPushLegacyNoRetryStalls(t *testing.T) {
	tb, srv, agent := setup(t)
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	agent.Close()
	calls := 0
	var last error
	opts := policy.PushOptions{MaxAttempts: 1}
	if err := srv.PushWith("target", tb.Target.IP(), opts, func(err error) { calls++; last = err }); err != nil {
		t.Fatal(err)
	}
	var agent2 *policy.Agent
	tb.Kernel.After(2500*time.Millisecond, func() {
		var err error
		agent2, err = policy.NewAgent(tb.Target, tb.PolicyServer.IP(), policy.DeriveKey("test"))
		if err != nil {
			t.Errorf("restart agent: %v", err)
		}
	})
	if err := tb.Kernel.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("done invoked %d times, want 1", calls)
	}
	if last == nil {
		t.Error("single-attempt push to a dead agent reported success")
	}
	if agent2 == nil || agent2.InstalledVersion() != 0 {
		t.Error("policy arrived without retries — test premise broken")
	}
}

// TestAgentSurvivesTruncatedGarbage: raw truncated bytes on the agent
// port must not wedge the listener — the read deadline reaps the
// connection and a subsequent full push still installs.
func TestAgentSurvivesTruncatedGarbage(t *testing.T) {
	tb, srv, agent := setup(t)

	// A client (with management-bypass standing, i.e. the policy server
	// host) dials the agent and sends half a push frame, then goes quiet.
	c, err := tb.PolicyServer.DialTCP(tb.Target.IP(), policy.AgentPort)
	if err != nil {
		t.Fatal(err)
	}
	c.OnConnect = func() {
		_ = c.Write([]byte("BPL2\x00\x00\x01")) // 7 of 8 header bytes
	}
	if err := tb.Kernel.RunFor(policy.AgentReadTimeout + time.Second); err != nil {
		t.Fatal(err)
	}
	if got := agent.Stats().TimeoutAborts; got != 1 {
		t.Fatalf("TimeoutAborts = %d, want 1", got)
	}

	// The agent must still accept a real push.
	if _, err := srv.SetPolicy("target", webPolicy); err != nil {
		t.Fatal(err)
	}
	var result error
	if err := srv.Push("target", tb.Target.IP(), func(err error) { result = err }); err != nil {
		t.Fatal(err)
	}
	if err := tb.Kernel.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if result != nil {
		t.Fatalf("push after garbage connection: %v", result)
	}
	if agent.InstalledVersion() != 1 {
		t.Errorf("installed = %d, want 1", agent.InstalledVersion())
	}
}

// TestAgentRejectsPushWithGroups: pushes carry rule-sets only. A
// correctly signed BPL2 push whose group count is 1 is answered with
// ERR, and the agent installs nothing.
func TestAgentRejectsPushWithGroups(t *testing.T) {
	tb, _, agent := setup(t)
	before := tb.Target.NIC().RuleSet()

	var body []byte
	body = binary.BigEndian.AppendUint32(body, 1) // version
	body = binary.BigEndian.AppendUint16(body, uint16(len("target")))
	body = append(body, "target"...)
	body = binary.BigEndian.AppendUint32(body, uint32(len(webPolicy)))
	body = append(body, webPolicy...)
	body = append(body, 1) // group count
	mac := hmac.New(sha256.New, policy.DeriveKey("test"))
	mac.Write(body)
	wire := binary.BigEndian.AppendUint32([]byte("BPL2"), uint32(len(body)+sha256.Size))
	wire = append(append(wire, body...), mac.Sum(nil)...)

	c, err := tb.PolicyServer.DialTCP(tb.Target.IP(), policy.AgentPort)
	if err != nil {
		t.Fatal(err)
	}
	var reply []byte
	c.OnConnect = func() { _ = c.Write(wire) }
	c.OnData = func(p []byte) { reply = append(reply, p...) }
	if err := tb.Kernel.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(reply), "ERR ") {
		t.Fatalf("reply = %q, want an ERR line", reply)
	}
	if agent.InstalledVersion() != 0 || agent.Stats().Installs != 0 {
		t.Errorf("agent installed v%d (%d installs), want nothing", agent.InstalledVersion(), agent.Stats().Installs)
	}
	if tb.Target.NIC().RuleSet() != before {
		t.Error("the card's rule set changed")
	}
}
