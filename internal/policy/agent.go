package policy

import (
	"fmt"
	"time"

	"barbican/internal/fw"
	"barbican/internal/nic"
	"barbican/internal/packet"
	"barbican/internal/stack"
)

// AgentStats counts agent activity.
type AgentStats struct {
	Installs       uint64
	AuthFails      uint64
	ParseFails     uint64
	StaleDrops     uint64 // pushes strictly older than the installed version
	IdempotentAcks uint64 // re-pushes of the installed version, acked without reinstall
	TimeoutAborts  uint64 // connections reaped by the per-push read deadline
	AbortedPushes  uint64 // connections torn down mid-push by the peer
}

// AgentReadTimeout bounds how long one push connection may stay open
// without completing: a truncated message (its tail lost to a fault or
// partition) must not hold the connection forever.
const AgentReadTimeout = 3 * time.Second

// Agent is the firewall agent running on a protected host: it receives
// signed policy pushes from the central server and installs them on the
// host's filtering card.
type Agent struct {
	host *stack.Host
	card *nic.NIC
	psk  []byte

	installedVersion uint32
	listener         *stack.Listener
	stats            AgentStats
	lastGoodAt       time.Duration // virtual time of the last successful install
	everInstalled    bool

	// OnInstall, when set, observes successful installs.
	OnInstall func(version uint32, rs *fw.RuleSet)
}

// NewAgent starts an agent on the host, managing the host's NIC. The
// card's management bypass is armed for server, so a freshly pushed
// deny-all policy cannot sever the control channel.
func NewAgent(h *stack.Host, server packet.IP, psk []byte) (*Agent, error) {
	a := &Agent{host: h, card: h.NIC(), psk: psk}
	l, err := h.ListenTCP(AgentPort, a.serve)
	if err != nil {
		return nil, fmt.Errorf("policy: agent: %w", err)
	}
	a.listener = l
	a.card.SetManagementBypass(server, AgentPort)
	return a, nil
}

// InstalledVersion returns the version of the currently enforced policy
// (0 before the first push).
func (a *Agent) InstalledVersion() uint32 { return a.installedVersion }

// LastGood reports the last successfully installed policy version and
// when it landed (virtual time). ok is false before the first install.
func (a *Agent) LastGood() (version uint32, at time.Duration, ok bool) {
	return a.installedVersion, a.lastGoodAt, a.everInstalled
}

// Stats returns a snapshot of the agent counters.
func (a *Agent) Stats() AgentStats { return a.stats }

// Close stops accepting pushes.
func (a *Agent) Close() { a.listener.Close() }

// serve handles one push connection. Faults on the management channel
// mean the bytes may be truncated, bit-flipped, or never complete; the
// handler must reject without panicking and without wedging: the read
// deadline frees the connection when the tail never arrives.
func (a *Agent) serve(c *stack.Conn) {
	var buf []byte
	complete := false // a push was answered (OK or ERR)

	deadline := a.host.Kernel().After(AgentReadTimeout, func() {
		if complete {
			return
		}
		complete = true
		a.stats.TimeoutAborts++
		c.Abort()
	})
	// reject answers a malformed push.
	reject := func(msg string) {
		complete = true
		deadline.Cancel()
		if werr := c.Write(encodeErr(msg)); werr == nil {
			c.Close()
		} else {
			c.Abort()
		}
	}
	torndown := func() {
		if complete {
			return
		}
		complete = true
		deadline.Cancel()
		a.stats.AbortedPushes++
	}
	c.OnReset = torndown
	c.OnPeerClose = torndown

	c.OnData = func(p []byte) {
		if complete {
			return
		}
		buf = append(buf, p...)
		msg, n, err := decodePush(a.psk, buf)
		if err != nil {
			if err == ErrBadMAC {
				a.stats.AuthFails++
			} else {
				a.stats.ParseFails++
			}
			reject(err.Error())
			return
		}
		if msg == nil {
			// Need more bytes — but a corrupted length field must not
			// buffer unboundedly while we wait for a tail that will
			// never come.
			if len(buf) > headerLen+maxPayloadSize+macLen {
				a.stats.ParseFails++
				reject(ErrTooLarge.Error())
			}
			return
		}
		buf = buf[n:]
		complete = true
		deadline.Cancel()
		a.handlePush(c, msg)
	}
}

// handlePush processes one fully received, authenticated push: it
// installs the rule-set on the card, or answers why not.
func (a *Agent) handlePush(c *stack.Conn, msg *pushMessage) {
	rejectWith := func(detail string) {
		if werr := c.Write(encodeErr(detail)); werr == nil {
			c.Close()
		} else {
			c.Abort()
		}
	}
	if a.everInstalled && msg.Version == a.installedVersion {
		// Idempotent re-push: a retry whose previous OK was lost on the
		// management channel. Confirm without reinstalling.
		a.stats.IdempotentAcks++
		a.lastGoodAt = a.host.Kernel().Now()
		if err := c.Write(encodeOK(msg.Version)); err == nil {
			c.Close()
		} else {
			c.Abort()
		}
		return
	}
	if msg.Version < a.installedVersion {
		a.stats.StaleDrops++
		rejectWith(fmt.Sprintf("stale version %d (installed %d)", msg.Version, a.installedVersion))
		return
	}
	rs, err := Parse(msg.Text)
	if err != nil {
		a.stats.ParseFails++
		rejectWith(err.Error())
		return
	}
	a.installedVersion = msg.Version
	a.everInstalled = true
	a.lastGoodAt = a.host.Kernel().Now()
	a.card.InstallRuleSet(rs)
	a.stats.Installs++
	if a.OnInstall != nil {
		a.OnInstall(msg.Version, rs)
	}
	if err := c.Write(encodeOK(msg.Version)); err == nil {
		c.Close()
	}
}
