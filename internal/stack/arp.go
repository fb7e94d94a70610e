package stack

import (
	"time"

	"barbican/internal/packet"
)

// ARP configuration: retry three times a second apart, cache entries for
// five minutes, queue at most eight datagrams per unresolved neighbor.
const (
	arpRetries      = 3
	arpRetryEvery   = time.Second
	arpCacheTTL     = 5 * time.Minute
	arpPendingLimit = 8
)

// ARPStats counts resolution activity.
type ARPStats struct {
	RequestsSent   uint64
	RepliesSent    uint64
	RepliesHeard   uint64
	CacheHits      uint64
	Failures       uint64 // resolutions abandoned after retries
	QueueOverflows uint64
}

type arpEntry struct {
	mac     packet.MAC
	expires time.Duration
}

type arpPending struct {
	datagrams []*packet.Datagram // queued datagrams awaiting the MAC
	retries   int
}

// arpState implements neighbor discovery for a host. It is created only
// when the host is configured without a static resolver.
type arpState struct {
	host    *Host
	cache   map[packet.IP]arpEntry
	pending map[packet.IP]*arpPending
	stats   ARPStats
}

func newARPState(h *Host) *arpState {
	return &arpState{
		host:    h,
		cache:   make(map[packet.IP]arpEntry),
		pending: make(map[packet.IP]*arpPending),
	}
}

// ARPStats returns resolution counters (zero value when the host uses a
// static resolver).
func (h *Host) ARPStats() ARPStats {
	if h.arp == nil {
		return ARPStats{}
	}
	return h.arp.stats
}

// lookup returns the cached MAC for ip, if fresh.
func (a *arpState) lookup(ip packet.IP) (packet.MAC, bool) {
	e, ok := a.cache[ip]
	if !ok || a.host.kernel.Now() >= e.expires {
		return packet.MAC{}, false
	}
	a.stats.CacheHits++
	return e.mac, true
}

// enqueue holds a datagram for ip and kicks off (or continues)
// resolution. Queued datagrams traverse the card's egress policy once
// the MAC resolves.
func (a *arpState) enqueue(ip packet.IP, d *packet.Datagram) {
	p := a.pending[ip]
	if p == nil {
		p = &arpPending{}
		a.pending[ip] = p
		a.sendRequest(ip)
		a.armRetry(ip)
	}
	if d == nil {
		return // resolution kicked off without queued payload
	}
	if len(p.datagrams) >= arpPendingLimit {
		a.stats.QueueOverflows++
		return
	}
	p.datagrams = append(p.datagrams, d)
}

func (a *arpState) armRetry(ip packet.IP) {
	a.host.kernel.After(arpRetryEvery, func() {
		p := a.pending[ip]
		if p == nil {
			return // resolved meanwhile
		}
		p.retries++
		if p.retries >= arpRetries {
			delete(a.pending, ip)
			a.stats.Failures++
			a.host.stats.TxNoRoute += uint64(len(p.datagrams))
			return
		}
		a.sendRequest(ip)
		a.armRetry(ip)
	})
}

func (a *arpState) sendRequest(ip packet.IP) {
	a.stats.RequestsSent++
	m := &packet.ARPMessage{
		Op:        packet.ARPRequest,
		SenderMAC: a.host.card.MAC(),
		SenderIP:  a.host.ip,
		TargetIP:  ip,
	}
	a.sendFrame(packet.Broadcast, m)
}

// sendFrame transmits an ARP message in a pooled frame.
func (a *arpState) sendFrame(dst packet.MAC, m *packet.ARPMessage) {
	card := a.host.card
	f := card.Endpoint().Frames().Get(dst, card.MAC(), packet.EtherTypeARP, packet.ARPLen)
	f.Payload = m.MarshalTo(f.Payload)
	card.SendRawFrame(f)
}

// handleFrame processes an inbound ARP frame.
func (a *arpState) handleFrame(f *packet.Frame) {
	m, err := packet.UnmarshalARPMessage(f.Payload)
	if err != nil {
		a.host.stats.RxMalformed++
		return
	}
	// Opportunistically learn the sender's binding either way.
	a.learn(m.SenderIP, m.SenderMAC)

	switch m.Op {
	case packet.ARPRequest:
		if m.TargetIP != a.host.ip {
			return
		}
		a.stats.RepliesSent++
		reply := &packet.ARPMessage{
			Op:        packet.ARPReply,
			SenderMAC: a.host.card.MAC(),
			SenderIP:  a.host.ip,
			TargetMAC: m.SenderMAC,
			TargetIP:  m.SenderIP,
		}
		a.sendFrame(m.SenderMAC, reply)
	case packet.ARPReply:
		a.stats.RepliesHeard++
	}
}

// learn records a binding and flushes any frames queued behind it.
func (a *arpState) learn(ip packet.IP, mac packet.MAC) {
	a.cache[ip] = arpEntry{mac: mac, expires: a.host.kernel.Now() + arpCacheTTL}
	p := a.pending[ip]
	if p == nil {
		return
	}
	delete(a.pending, ip)
	for _, d := range p.datagrams {
		if !a.host.card.Send(d, mac) {
			a.host.stats.TxNICRefused++
		} else {
			a.host.stats.TxDatagrams++
		}
	}
}
