package measure

import (
	"fmt"
	"time"

	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// PingCount is the number of echo requests one RunPingRTT sends.
// pingInterval spaces them; pingTimeout bounds the wait for stragglers
// after the last one.
const (
	PingCount    = 20
	pingInterval = 10 * time.Millisecond
	pingTimeout  = 500 * time.Millisecond
)

// PingResult reports an RTT measurement.
type PingResult struct {
	Sent     int
	Received int
	// RTTms is the round-trip-time distribution in milliseconds.
	RTTms Sample
}

// String renders a ping-style summary.
func (r PingResult) String() string {
	loss := 0.0
	if r.Sent > 0 {
		loss = 100 * float64(r.Sent-r.Received) / float64(r.Sent)
	}
	return fmt.Sprintf("%d sent, %d received (%.0f%% loss), rtt %.3f±%.3f ms",
		r.Sent, r.Received, loss, r.RTTms.Mean(), r.RTTms.Stddev())
}

// RunPingRTT measures ICMP echo round-trip times from client to server
// over PingCount echo requests. It installs (and restores) the client's
// ICMP observer and drives the simulation kernel for the measurement.
func RunPingRTT(k *sim.Kernel, client, server *stack.Host) (PingResult, error) {
	var res PingResult

	const id = 0x4242
	sentAt := make(map[uint16]time.Duration, PingCount)
	prev := client.OnICMP
	defer func() { client.OnICMP = prev }()
	client.OnICMP = func(src packet.IP, m packet.ICMPMessage) {
		if m.Type != packet.ICMPEchoReply || m.ID != id || src != server.IP() {
			if prev != nil {
				prev(src, m)
			}
			return
		}
		at, ok := sentAt[m.Seq]
		if !ok {
			return // duplicate or stray
		}
		delete(sentAt, m.Seq)
		res.Received++
		res.RTTms.Add(float64(k.Now()-at) / float64(time.Millisecond))
	}

	start := k.Now()
	for i := 0; i < PingCount; i++ {
		seq := uint16(i + 1)
		k.At(start+time.Duration(i)*pingInterval, func() {
			sentAt[seq] = k.Now()
			res.Sent++
			client.Ping(server.IP(), id, seq)
		})
	}
	deadline := start + time.Duration(PingCount)*pingInterval + pingTimeout
	if err := k.RunUntil(deadline); err != nil {
		return res, err
	}
	return res, nil
}
