package measure

import (
	"fmt"
	"time"

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
	// Metrics, when non-nil, publishes the measurement's live byte
	// counter so a flight recorder can turn the endpoint scalar into a
	// time-resolved goodput series.
	Metrics *obs.Registry
}

func (c IperfConfig) withDefaults() IperfConfig {
	if c.Duration == 0 {
		c.Duration = 5 * time.Second
	}
	return c
}

// IperfResult reports a TCP bandwidth measurement. Mbps counts payload
// goodput, the quantity iperf prints.
type IperfResult struct {
	Duration      time.Duration
	BytesReceived uint64
	Mbps          float64
}

// String renders the result like iperf's summary line.
func (r IperfResult) String() string {
	return fmt.Sprintf("[tcp] %v  %d bytes  %.1f Mbits/sec", r.Duration, r.BytesReceived, r.Mbps)
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
		Duration:      cfg.Duration,
		BytesReceived: received,
		Mbps:          float64(received) * 8 / cfg.Duration.Seconds() / 1e6,
	}, nil
}
