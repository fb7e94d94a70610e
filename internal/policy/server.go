package policy

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"barbican/internal/packet"
	"barbican/internal/stack"
)

// DeriveKey derives the pre-shared distribution key from a passphrase.
func DeriveKey(passphrase string) []byte {
	sum := sha256.Sum256([]byte("barbican-policy-psk:" + passphrase))
	return sum[:]
}

// AuditEvent records one policy-distribution outcome.
type AuditEvent struct {
	At      time.Duration // virtual time
	Device  string
	Target  packet.IP
	Version uint32
	OK      bool
	Detail  string
}

// String renders the event as an audit-log line.
func (e AuditEvent) String() string {
	status := "OK"
	if !e.OK {
		status = "FAIL"
	}
	return fmt.Sprintf("%v push %q v%d -> %v: %s %s", e.At, e.Device, e.Version, e.Target, status, e.Detail)
}

// assignment is a device's policy state on the server.
type assignment struct {
	text    string
	version uint32
}

// ServerStats counts policy-distribution activity.
type ServerStats struct {
	Pushes    uint64 // Push calls accepted (a policy was stored)
	Attempts  uint64 // connection attempts, including retries
	Retries   uint64 // attempts after the first
	Successes uint64 // pushes settled with an agent OK
	Failures  uint64 // pushes settled terminally without one
}

// Server is the central policy server: it owns named device policies and
// pushes signed rule-sets to firewall agents.
type Server struct {
	host *stack.Host
	psk  []byte

	assignments map[string]*assignment
	audit       []AuditEvent
	stats       ServerStats
}

// NewServer creates a policy server on the given host.
func NewServer(h *stack.Host, psk []byte) *Server {
	return &Server{host: h, psk: psk, assignments: make(map[string]*assignment)}
}

// SetPolicy validates and stores the policy text for a device, bumping
// its version.
func (s *Server) SetPolicy(device, text string) (version uint32, err error) {
	if _, err := Parse(text); err != nil {
		return 0, err
	}
	a := s.assignments[device]
	if a == nil {
		a = &assignment{}
		s.assignments[device] = a
	}
	a.text = text
	a.version++
	return a.version, nil
}

// Policy returns the stored policy text and version for a device.
func (s *Server) Policy(device string) (text string, version uint32, ok bool) {
	a := s.assignments[device]
	if a == nil {
		return "", 0, false
	}
	return a.text, a.version, true
}

// Audit returns a copy of the audit log.
func (s *Server) Audit() []AuditEvent {
	return append([]AuditEvent(nil), s.audit...)
}

// Stats returns a snapshot of the distribution counters.
func (s *Server) Stats() ServerStats { return s.stats }

// The retry engine's timing. Jitter draws from the host kernel's
// seeded generator, which keeps runs deterministic; it never touches
// the global math/rand source.
const (
	// pushAttemptTimeout bounds each connection attempt (dial → agent
	// reply).
	pushAttemptTimeout = time.Second
	// pushBaseBackoff is the delay after the first failed attempt; each
	// further failure doubles it up to pushMaxBackoff.
	pushBaseBackoff = 100 * time.Millisecond
	pushMaxBackoff  = 2 * time.Second
	// pushJitterFrac spreads each backoff uniformly by ±frac.
	pushJitterFrac = 0.2
	// defaultMaxAttempts is the attempt cap of a zero PushOptions.
	defaultMaxAttempts = 5
)

// PushOptions tunes the retry engine behind Push. The zero value means
// defaults; see the field comments.
type PushOptions struct {
	// MaxAttempts caps total attempts before the push settles
	// terminally. Zero means 5; 1 disables retries (legacy behavior).
	MaxAttempts int
}

// retryableAgentErr classifies an agent ERR reply: corruption-shaped
// rejections (a lossy or bit-flipping management channel mangled the
// wire image) are worth re-sending; semantic rejections (stale
// version, unparseable policy) are not.
func retryableAgentErr(msg string) bool {
	return strings.Contains(msg, "authentication") ||
		strings.Contains(msg, "magic") ||
		strings.Contains(msg, "truncated") ||
		strings.Contains(msg, "too large") ||
		strings.Contains(msg, "malformed") // a corrupted response line, not a corrupted push

}

// Push distributes the device's current policy to the agent at target
// with default retry options. A non-nil return means the push never
// started (no stored policy) and done will NOT be
// invoked; once Push returns nil, done (if non-nil) is invoked exactly
// once with the terminal outcome — after the agent's OK, or after the
// retry budget is exhausted.
func (s *Server) Push(device string, target packet.IP, done func(error)) error {
	return s.PushWith(device, target, PushOptions{}, done)
}

// PushWith is Push with explicit retry options: per-attempt timeouts,
// capped exponential backoff with seeded jitter, and idempotent
// versioned re-push (the agent acks a version it already runs, so a
// retry whose previous OK was lost still converges).
func (s *Server) PushWith(device string, target packet.IP, opt PushOptions, done func(error)) error {
	a := s.assignments[device]
	if a == nil {
		return fmt.Errorf("policy: no policy stored for device %q", device)
	}
	msg := &pushMessage{Version: a.version, Name: device, Text: a.text}
	s.stats.Pushes++
	r := &pushRun{
		s:       s,
		device:  device,
		target:  target,
		version: a.version,
		wire:    msg.encode(s.psk),
		maxAtt:  opt.MaxAttempts,
		rng:     s.host.Kernel().Rand(),
		done:    done,
	}
	if r.maxAtt <= 0 {
		r.maxAtt = defaultMaxAttempts
	}
	r.attempt(1)
	return nil
}

// pushRun is one Push's lifetime across its attempts. settle is the
// single terminal path: it fires done exactly once no matter how many
// attempt callbacks (timeout, reset, late data) race in after it.
type pushRun struct {
	s       *Server
	device  string
	target  packet.IP
	version uint32
	wire    []byte
	maxAtt  int
	rng     *rand.Rand
	done    func(error)
	settled bool
}

func (r *pushRun) auditEvent(ok bool, detail string) {
	r.s.audit = append(r.s.audit, AuditEvent{
		At:      r.s.host.Kernel().Now(),
		Device:  r.device,
		Target:  r.target,
		Version: r.version,
		OK:      ok,
		Detail:  detail,
	})
}

func (r *pushRun) settle(outcome error) {
	if r.settled {
		return
	}
	r.settled = true
	if outcome == nil {
		r.s.stats.Successes++
		r.auditEvent(true, "installed")
	} else {
		r.s.stats.Failures++
		r.auditEvent(false, outcome.Error())
	}
	if r.done != nil {
		r.done(outcome)
	}
}

// backoff computes the post-attempt-i delay: capped exponential with
// seeded ±pushJitterFrac jitter.
func (r *pushRun) backoff(i int) time.Duration {
	d := pushMaxBackoff
	if shift := i - 1; shift < 20 && pushBaseBackoff<<shift < pushMaxBackoff {
		d = pushBaseBackoff << shift
	}
	u := 2*r.rng.Float64() - 1
	return time.Duration(float64(d) * (1 + pushJitterFrac*u))
}

// attemptFailed records a failed attempt and either schedules the next
// one or settles the push terminally.
func (r *pushRun) attemptFailed(i int, err error, retryable bool) {
	if r.settled {
		return
	}
	if !retryable || i >= r.maxAtt {
		if i > 1 || retryable {
			err = fmt.Errorf("policy: push failed after %d attempt(s): %w", i, err)
		}
		r.settle(err)
		return
	}
	r.auditEvent(false, fmt.Sprintf("attempt %d/%d: %v", i, r.maxAtt, err))
	r.s.stats.Retries++
	r.s.host.Kernel().After(r.backoff(i), func() { r.attempt(i + 1) })
}

// attempt runs one connection attempt.
func (r *pushRun) attempt(i int) {
	if r.settled {
		return
	}
	r.s.stats.Attempts++
	conn, err := r.s.host.DialTCP(r.target, AgentPort)
	if err != nil {
		r.attemptFailed(i, fmt.Errorf("policy: dial: %w", err), true)
		return
	}

	attemptDone := false
	timeoutEv := r.s.host.Kernel().After(pushAttemptTimeout, func() {
		if attemptDone || r.settled {
			return
		}
		attemptDone = true
		conn.Abort()
		r.attemptFailed(i, fmt.Errorf("policy: attempt timed out after %v", pushAttemptTimeout), true)
	})
	finishAttempt := func() bool {
		if attemptDone || r.settled {
			return false
		}
		attemptDone = true
		timeoutEv.Cancel()
		return true
	}

	var resp []byte
	conn.OnConnect = func() {
		if attemptDone || r.settled {
			return
		}
		if err := conn.Write(r.wire); err != nil {
			if finishAttempt() {
				conn.Abort()
				r.attemptFailed(i, fmt.Errorf("policy: send: %w", err), true)
			}
		}
	}
	conn.OnData = func(p []byte) {
		if attemptDone || r.settled {
			return
		}
		resp = append(resp, p...)
		version, errMsg, ok := parseResponse(resp)
		if !ok {
			return
		}
		if !finishAttempt() {
			return
		}
		switch {
		case errMsg != "":
			r.attemptFailed(i, fmt.Errorf("policy: agent: %s", errMsg), retryableAgentErr(errMsg))
		case version != r.version:
			r.attemptFailed(i, fmt.Errorf("policy: agent installed v%d, want v%d", version, r.version), false)
		default:
			r.settle(nil)
		}
		conn.Close()
	}
	conn.OnReset = func() {
		if finishAttempt() {
			r.attemptFailed(i, fmt.Errorf("policy: connection reset"), true)
		}
	}
	conn.OnPeerClose = func() {
		if finishAttempt() {
			r.attemptFailed(i, fmt.Errorf("policy: agent closed without replying"), true)
		}
	}
}
