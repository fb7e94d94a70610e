package measure

import (
	"fmt"
	"time"

	"barbican/internal/apps"
	"barbican/internal/obs"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// IperfPort is iperf's conventional port, where every iperf and RFC 2544
// measurement listens.
const IperfPort = 5001

// iperfDrain is the settle time after the send window before the
// counters are read.
const iperfDrain = 50 * time.Millisecond

// IperfConfig configures a bandwidth measurement.
type IperfConfig struct {
	// Duration is the measurement window; zero defaults to 5 s. The
	// server listens on IperfPort.
	Duration time.Duration
	// OfferedMbps is the UDP offered load in Mbit/s of payload; zero
	// defaults to slightly above the theoretical goodput of the wire so
	// the measurement reports *available* bandwidth.
	OfferedMbps float64
	// Metrics, when non-nil, publishes the measurement's live counters
	// (bytes received, datagrams sent) so a flight recorder can turn the
	// endpoint scalar into a time-resolved goodput series.
	Metrics *obs.Registry
}

func (c IperfConfig) withDefaults() IperfConfig {
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	return c
}

// IperfResult reports a bandwidth measurement. Mbps counts payload
// goodput, the quantity iperf prints.
type IperfResult struct {
	Protocol          string
	Duration          time.Duration
	BytesReceived     uint64
	Mbps              float64
	DatagramsSent     uint64
	DatagramsReceived uint64
	LossFraction      float64
}

// String renders the result like iperf's summary line.
func (r IperfResult) String() string {
	if r.Protocol == "udp" {
		return fmt.Sprintf("[%s] %v  %d bytes  %.1f Mbits/sec  %d/%d (%.1f%% loss)",
			r.Protocol, r.Duration, r.BytesReceived, r.Mbps,
			r.DatagramsSent-r.DatagramsReceived, r.DatagramsSent, 100*r.LossFraction)
	}
	return fmt.Sprintf("[%s] %v  %d bytes  %.1f Mbits/sec", r.Protocol, r.Duration, r.BytesReceived, r.Mbps)
}

// RunUDPIperf measures available UDP bandwidth from client to server by
// offering a near-wire-rate datagram stream and counting what survives
// the path. Each datagram carries the largest payload that fits one
// frame on the client's path (1,518-byte frames, the size the paper's
// bandwidth experiments used). It drives the simulation kernel for the
// measurement window.
func RunUDPIperf(k *sim.Kernel, client, server *stack.Host, cfg IperfConfig) (IperfResult, error) {
	cfg = cfg.withDefaults()
	payloadBytes := client.MaxUDPPayload()
	if cfg.OfferedMbps == 0 {
		// Offer a touch above what the wire can carry so the path, not
		// the sender, is the bottleneck.
		cfg.OfferedMbps = 99
	}

	sink, err := apps.NewUDPSink(server, IperfPort)
	if err != nil {
		return IperfResult{}, err
	}
	defer sink.Close()
	sock, err := client.BindUDP(0)
	if err != nil {
		return IperfResult{}, err
	}
	defer sock.Close()

	interval := time.Duration(float64(payloadBytes*8) / (cfg.OfferedMbps * 1e6) * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	payload := make([]byte, payloadBytes)
	start := k.Now()
	var sent uint64
	if cfg.Metrics != nil {
		cfg.Metrics.MustRegisterFunc("iperf_rx_bytes_total",
			"Payload bytes received by the iperf sink; its per-second rate is instantaneous goodput.",
			obs.KindCounter, func() float64 { _, b := sink.Received(); return float64(b) },
			obs.L("proto", "udp"))
		cfg.Metrics.MustRegisterFunc("iperf_rx_datagrams_total",
			"Datagrams received by the iperf sink.",
			obs.KindCounter, func() float64 { d, _ := sink.Received(); return float64(d) },
			obs.L("proto", "udp"))
		cfg.Metrics.MustRegisterFunc("iperf_tx_datagrams_total",
			"Datagrams offered by the iperf sender.",
			obs.KindCounter, func() float64 { return float64(sent) },
			obs.L("proto", "udp"))
	}
	var send func(any)
	send = func(any) {
		if k.Now()-start >= cfg.Duration {
			return
		}
		sent++
		sock.SendTo(server.IP(), IperfPort, payload)
		// Deterministic ±5% jitter avoids phase-locking with other
		// periodic senders sharing the path.
		k.AfterCall(time.Duration(float64(interval)*(0.95+0.1*k.Rand().Float64())), send, nil)
	}
	send(nil)

	if err := k.RunUntil(start + cfg.Duration + iperfDrain); err != nil {
		return IperfResult{}, err
	}
	datagrams, bytes := sink.Received()
	res := IperfResult{
		Protocol:          "udp",
		Duration:          cfg.Duration,
		BytesReceived:     bytes,
		Mbps:              float64(bytes) * 8 / cfg.Duration.Seconds() / 1e6,
		DatagramsSent:     sent,
		DatagramsReceived: datagrams,
	}
	if sent > 0 {
		res.LossFraction = 1 - float64(datagrams)/float64(sent)
	}
	return res, nil
}

// RunTCPIperf measures TCP goodput from client to server. It drives the
// simulation kernel for the measurement window.
func RunTCPIperf(k *sim.Kernel, client, server *stack.Host, cfg IperfConfig) (IperfResult, error) {
	cfg = cfg.withDefaults()

	var received uint64
	listener, err := server.ListenTCP(IperfPort, func(c *stack.Conn) {
		c.OnData = func(p []byte) { received += uint64(len(p)) }
	})
	if err != nil {
		return IperfResult{}, err
	}
	defer listener.Close()
	if cfg.Metrics != nil {
		cfg.Metrics.MustRegisterFunc("iperf_rx_bytes_total",
			"Payload bytes received by the iperf sink; its per-second rate is instantaneous goodput.",
			obs.KindCounter, func() float64 { return float64(received) },
			obs.L("proto", "tcp"))
	}

	conn, err := client.DialTCP(server.IP(), IperfPort)
	if err != nil {
		return IperfResult{}, err
	}
	start := k.Now()
	const chunk = 64 << 10
	chunkBuf := make([]byte, chunk) // Write copies into the conn buffer, so one chunk is reusable
	fill := func() {
		for conn.Buffered() < 2*chunk && k.Now()-start < cfg.Duration {
			if err := conn.Write(chunkBuf); err != nil {
				return
			}
		}
	}
	conn.OnConnect = fill
	conn.OnAcked = func(int) { fill() }

	if err := k.RunUntil(start + cfg.Duration + iperfDrain); err != nil {
		return IperfResult{}, err
	}
	conn.Abort()
	return IperfResult{
		Protocol:      "tcp",
		Duration:      cfg.Duration,
		BytesReceived: received,
		Mbps:          float64(received) * 8 / cfg.Duration.Seconds() / 1e6,
	}, nil
}
