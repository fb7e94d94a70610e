package measure

import (
	"fmt"
	"time"

	"barbican/internal/apps"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// RFC 2544 benchmarking, adapted as the paper adapted it (§4.1): the
// classic methodology measures a forwarding device between two
// interfaces, but a NIC-based firewall has one interface and no
// forwarding path, so the throughput search offers a unidirectional
// stream to the protected host and asks what rate arrives intact.

// RFC2544FrameSizes are the standard Ethernet trial frame sizes.
var RFC2544FrameSizes = []int{64, 128, 256, 512, 1024, 1280, 1518}

// ThroughputConfig configures an RFC 2544-style zero-loss throughput
// search.
type ThroughputConfig struct {
	// FrameSize is the Ethernet frame size (header+payload+FCS), one of
	// the RFC's trial sizes; zero defaults to 1518.
	FrameSize int
	// TrialDuration is the per-rate trial length; zero defaults to 2 s
	// (the RFC recommends 60 s; simulation trades that for search depth).
	TrialDuration time.Duration
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.FrameSize == 0 {
		c.FrameSize = 1518
	}
	if c.TrialDuration == 0 {
		c.TrialDuration = 2 * time.Second
	}
	return c
}

const (
	// lossTolerance is the loss fraction a passing trial may show; the
	// RFC demands zero, but 0.1 % stabilizes the search against
	// boundary jitter.
	lossTolerance = 0.001
	// throughputGrid is the number of equal rate steps between zero and
	// the medium's maximum frame rate that the search resolves.
	throughputGrid = 256
)

// ThroughputResult reports a zero-loss throughput search.
type ThroughputResult struct {
	FrameSize int
	// FramesPerSec is the highest offered frame rate with loss within
	// tolerance.
	FramesPerSec float64
	// Mbps is the corresponding line rate (frame bytes, excluding
	// preamble/IFG, as RFC 2544 reports).
	Mbps float64
	// LineRateLimited reports that the search hit the medium's maximum
	// frame rate rather than a device limit.
	LineRateLimited bool
}

// String renders one result row.
func (r ThroughputResult) String() string {
	note := ""
	if r.LineRateLimited {
		note = " (line rate)"
	}
	return fmt.Sprintf("%4d-byte frames: %8.0f fps  %6.1f Mbps%s", r.FrameSize, r.FramesPerSec, r.Mbps, note)
}

// trialFn runs one offered-load trial and reports sent and received
// frame counts.
type trialFn func(rate float64) (sent, received uint64, err error)

// ZeroLossThroughput performs the RFC 2544 §26.1 throughput search for
// one frame size: the highest rate on a grid of maxRate/256 steps whose
// loss is within tolerance, found by Bisect for the lowest lossy step.
// trial must build a *fresh* client/server pair per trial (trials must
// be independent); it is invoked once per trial.
func ZeroLossThroughput(cfg ThroughputConfig, maxRate float64, trial trialFn) (ThroughputResult, error) {
	cfg = cfg.withDefaults()
	res := ThroughputResult{FrameSize: cfg.FrameSize}
	step := maxRate / throughputGrid
	k, found, err := Bisect(0, throughputGrid, func(k int) (bool, error) {
		sent, received, err := trial(float64(k) * step)
		if err != nil {
			return false, err
		}
		if sent == 0 {
			return false, fmt.Errorf("measure: trial offered no frames")
		}
		return 1-float64(received)/float64(sent) > lossTolerance, nil
	})
	if err != nil {
		return res, err
	}
	res.FramesPerSec, res.LineRateLimited = maxRate, !found
	if found {
		res.FramesPerSec = float64(k-1) * step
	}
	res.Mbps = res.FramesPerSec * float64(cfg.FrameSize) * 8 / 1e6
	return res, nil
}

// HostThroughputTrial returns a trialFn measuring a UDP stream between
// two hosts built fresh per trial by newPair. The frame size fixes the
// UDP payload length.
func HostThroughputTrial(cfg ThroughputConfig, newPair func() (k *sim.Kernel, client, server *stack.Host, err error)) trialFn {
	cfg = cfg.withDefaults()
	// frame = 18 (eth hdr+fcs) + 20 (ip) + 8 (udp) + payload
	payload := cfg.FrameSize - 18 - 28
	if payload < 0 {
		payload = 0
	}
	return func(rate float64) (uint64, uint64, error) {
		k, client, server, err := newPair()
		if err != nil {
			return 0, 0, err
		}
		sink, err := apps.NewUDPSink(server, DefaultIperfPort)
		if err != nil {
			return 0, 0, err
		}
		sock, err := client.BindUDP(0)
		if err != nil {
			return 0, 0, err
		}
		buf := make([]byte, payload)
		start := k.Now()
		var sent uint64
		interval := time.Duration(float64(time.Second) / rate)
		var send func()
		send = func() {
			if k.Now()-start >= cfg.TrialDuration {
				return
			}
			sent++
			sock.SendTo(server.IP(), DefaultIperfPort, buf)
			k.After(interval, send)
		}
		send()
		if err := k.RunUntil(start + cfg.TrialDuration + 100*time.Millisecond); err != nil {
			return 0, 0, err
		}
		received, _ := sink.Received()
		return sent, received, nil
	}
}
