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
	// LossTolerance is the acceptable loss fraction for a passing trial;
	// the RFC demands zero, but a small epsilon (default 0.1 %)
	// stabilizes the binary search against boundary jitter.
	LossTolerance float64
	// Port is the sink port; zero defaults to DefaultIperfPort.
	Port uint16
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.FrameSize == 0 {
		c.FrameSize = 1518
	}
	if c.TrialDuration == 0 {
		c.TrialDuration = 2 * time.Second
	}
	if c.LossTolerance == 0 {
		c.LossTolerance = 0.001
	}
	if c.Port == 0 {
		c.Port = DefaultIperfPort
	}
	return c
}

// ThroughputResult reports a zero-loss throughput search.
type ThroughputResult struct {
	FrameSize int
	// FramesPerSec is the highest offered frame rate with loss within
	// tolerance.
	FramesPerSec float64
	// Mbps is the corresponding line rate (frame bytes, excluding
	// preamble/IFG, as RFC 2544 reports).
	Mbps float64
	// Trials is the number of rate trials run.
	Trials int
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

// ZeroLossThroughputFrom performs the RFC 2544 §26.1 throughput search
// for one frame size: binary search on the offered rate for the highest
// rate whose loss is within tolerance. trial must build a *fresh*
// client/server pair per trial (trials must be independent); it is
// invoked once per trial.
//
// A hint in (0, maxRate) — typically the passing rate found at the
// adjacent frame size, scaled by the size ratio — seeds the bisection
// bracket by galloping outward from the hint, which cuts trial count
// when neighboring sizes saturate at nearby rates. hint <= 0 runs the
// cold search.
func ZeroLossThroughputFrom(cfg ThroughputConfig, maxRate, hint float64, trial trialFn) (ThroughputResult, error) {
	cfg = cfg.withDefaults()
	res := ThroughputResult{FrameSize: cfg.FrameSize}

	passes := func(rate float64) (bool, error) {
		sent, received, err := trial(rate)
		if err != nil {
			return false, err
		}
		res.Trials++
		if sent == 0 {
			return false, fmt.Errorf("measure: trial offered no frames")
		}
		loss := 1 - float64(received)/float64(sent)
		return loss <= cfg.LossTolerance, nil
	}

	var lo, hi float64
	if hint > 0 && hint < maxRate {
		// Warm start: establish the lo-passes / hi-fails bracket by
		// galloping from the hint, doubling the step until the outcome
		// flips or a cold bound is reached.
		ok, err := passes(hint)
		if err != nil {
			return res, err
		}
		step := maxRate / 256
		if ok {
			lo = hint
			for {
				hi = lo + step
				if hi >= maxRate {
					hi = maxRate
				}
				ok2, err := passes(hi)
				if err != nil {
					return res, err
				}
				if !ok2 {
					break
				}
				lo = hi
				if hi == maxRate {
					res.FramesPerSec = maxRate
					res.LineRateLimited = true
					res.Mbps = maxRate * float64(cfg.FrameSize) * 8 / 1e6
					return res, nil
				}
				step *= 2
			}
		} else {
			hi = hint
			for {
				lo = hi - step
				if lo <= 0 {
					lo = 0
					break // lo passes vacuously
				}
				ok2, err := passes(lo)
				if err != nil {
					return res, err
				}
				if ok2 {
					break
				}
				hi = lo
				step *= 2
			}
		}
	} else {
		ok, err := passes(maxRate)
		if err != nil {
			return res, err
		}
		if ok {
			res.FramesPerSec = maxRate
			res.LineRateLimited = true
			res.Mbps = maxRate * float64(cfg.FrameSize) * 8 / 1e6
			return res, nil
		}
		lo, hi = 0.0, maxRate // invariant: lo passes (vacuously), hi fails
	}
	for hi-lo > maxRate/256 {
		mid := (lo + hi) / 2
		ok, err := passes(mid)
		if err != nil {
			return res, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.FramesPerSec = lo
	res.Mbps = lo * float64(cfg.FrameSize) * 8 / 1e6
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
		sink, err := apps.NewUDPSink(server, cfg.Port)
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
			sock.SendTo(server.IP(), cfg.Port, buf)
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
