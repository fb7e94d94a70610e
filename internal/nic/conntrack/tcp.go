package conntrack

import (
	"fmt"
	"time"

	"barbican/internal/packet"
)

// TCPState is the tracked connection's position in the RFC 793 state
// machine, collapsed to the granularity a firewall needs: both
// directions of the close sequence fold into FinWait/Closing, and both
// UDP and ICMP pseudo-connections use TCPNone.
type TCPState int

// Tracked states.
const (
	// TCPNone marks a non-TCP pseudo-connection (UDP or ICMP pair).
	TCPNone TCPState = iota
	// TCPSynSent: initial SYN seen, no reply yet (embryonic).
	TCPSynSent
	// TCPSynRecv: SYN/ACK reply (or simultaneous-open SYN) seen.
	TCPSynRecv
	// TCPEstablished: three-way handshake completed.
	TCPEstablished
	// TCPFinWait: first FIN seen.
	TCPFinWait
	// TCPClosing: both FINs seen, awaiting the final ACK.
	TCPClosing
	// TCPTimeWait: close sequence acknowledged; lingering entry.
	TCPTimeWait
	// TCPClosed: RST seen; packets for the entry are invalid until a
	// fresh SYN reuses the tuple.
	TCPClosed
	// NumTCPStates is the sentinel for exhaustive-switch checks.
	NumTCPStates
)

var tcpStateNames = [...]string{
	TCPNone:        "none",
	TCPSynSent:     "syn-sent",
	TCPSynRecv:     "syn-recv",
	TCPEstablished: "established",
	TCPFinWait:     "fin-wait",
	TCPClosing:     "closing",
	TCPTimeWait:    "time-wait",
	TCPClosed:      "closed",
}

// String names the state.
func (s TCPState) String() string {
	if s >= 0 && int(s) < len(tcpStateNames) {
		return tcpStateNames[s]
	}
	return fmt.Sprintf("tcpstate(%d)", int(s))
}

// The per-state idle timeouts, on virtual time: the netfilter shape
// (embryonic states short, established long) scaled to the simulator's
// seconds-long experiment horizon. An entry that has not seen a packet
// for its state's timeout is expired lazily on the next lookup or
// reaped when the table needs a slot.
const (
	timeoutSynSent     = 30 * time.Second
	timeoutSynRecv     = 15 * time.Second
	timeoutEstablished = 600 * time.Second
	timeoutFinWait     = 30 * time.Second
	timeoutClosing     = 15 * time.Second
	timeoutTimeWait    = 30 * time.Second
	timeoutClosed      = 5 * time.Second
	timeoutUDPNew      = 10 * time.Second
	timeoutUDPReplied  = 60 * time.Second
	timeoutICMP        = 10 * time.Second
)

// idleTimeout returns the idle timeout for an entry's current state.
func idleTimeout(e *entry) time.Duration {
	switch e.tcp {
	case TCPNone:
		if protoOf(e.key) == packet.ProtoICMP {
			return timeoutICMP
		}
		if e.replied {
			return timeoutUDPReplied
		}
		return timeoutUDPNew
	case TCPSynSent:
		return timeoutSynSent
	case TCPSynRecv:
		return timeoutSynRecv
	case TCPEstablished:
		return timeoutEstablished
	case TCPFinWait:
		return timeoutFinWait
	case TCPClosing:
		return timeoutClosing
	case TCPTimeWait:
		return timeoutTimeWait
	case TCPClosed, NumTCPStates:
		return timeoutClosed
	default:
		return timeoutClosed
	}
}

// advanceTCP applies one TCP segment to an existing entry's state
// machine and reports whether the entry became assured (handshake
// completed) by this packet. fromInit is true when the segment travels
// in the direction the tracked connection was initiated.
//
//barbican:noalloc
func advanceTCP(e *entry, fromInit bool, flags packet.TCPFlags) (assuredNow bool) {
	if flags.Has(packet.FlagRST) {
		e.tcp = TCPClosed
		return false
	}
	syn := flags.Has(packet.FlagSYN)
	fin := flags.Has(packet.FlagFIN)
	ack := flags.Has(packet.FlagACK)
	switch {
	case syn && !ack:
		switch e.tcp {
		case TCPSynSent:
			if !fromInit {
				// Simultaneous open: both ends sent SYN.
				e.tcp = TCPSynRecv
			}
			// From the initiator it is a retransmit; no transition.
		case TCPNone, TCPSynRecv, TCPEstablished, TCPFinWait, TCPClosing,
			TCPTimeWait, TCPClosed, NumTCPStates:
			// A SYN against a live connection is ignored (the caller
			// classified it); tuple reuse after close is handled by
			// the table, which restarts the entry.
		}
	case syn && ack:
		switch e.tcp {
		case TCPSynSent:
			if !fromInit {
				e.tcp = TCPSynRecv
			}
		case TCPSynRecv:
			if fromInit {
				// Simultaneous open completes on the crossed SYN/ACK.
				e.tcp = TCPEstablished
				return true
			}
		case TCPNone, TCPEstablished, TCPFinWait, TCPClosing, TCPTimeWait,
			TCPClosed, NumTCPStates:
		}
	case fin:
		switch e.tcp {
		case TCPEstablished, TCPSynRecv:
			e.tcp = TCPFinWait
		case TCPFinWait:
			e.tcp = TCPClosing
		case TCPNone, TCPSynSent, TCPClosing, TCPTimeWait, TCPClosed, NumTCPStates:
		}
	case ack:
		switch e.tcp {
		case TCPSynRecv:
			if fromInit {
				e.tcp = TCPEstablished
				return true
			}
		case TCPClosing:
			e.tcp = TCPTimeWait
		case TCPNone, TCPSynSent, TCPEstablished, TCPFinWait, TCPTimeWait,
			TCPClosed, NumTCPStates:
		}
	}
	return false
}
