package measure

import (
	"time"

	"barbican/internal/apps"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// httpLoadDrain allows the final in-flight fetch to finish.
const httpLoadDrain = 250 * time.Millisecond

// HTTPLoadConfig configures a web load measurement, mirroring the paper's
// http_load invocation: "at most one connection at a time with an
// unlimited rate for 30 s". The server listens on apps.HTTPPort.
type HTTPLoadConfig struct {
	// Duration is the measurement window; zero defaults to 30 s.
	Duration time.Duration
}

func (c HTTPLoadConfig) withDefaults() HTTPLoadConfig {
	if c.Duration == 0 {
		c.Duration = 30 * time.Second
	}
	return c
}

// HTTPLoadResult reports the three metrics http_load prints and the paper
// tabulates in Table 1.
type HTTPLoadResult struct {
	Duration      time.Duration
	Fetches       int
	Errors        int
	FetchesPerSec float64
	// ConnectMs is the TCP three-way-handshake latency distribution.
	ConnectMs Sample
	// FirstResponseMs is the request-to-first-response-byte latency
	// distribution.
	FirstResponseMs Sample
	BytesFetched    uint64
}

// RunHTTPLoad fetches / from the server sequentially on fresh
// connections for the configured window and reports throughput and
// latency. It drives the simulation kernel.
func RunHTTPLoad(k *sim.Kernel, client, server *stack.Host, cfg HTTPLoadConfig) (HTTPLoadResult, error) {
	cfg = cfg.withDefaults()
	httpc := apps.NewHTTPClient(client)
	start := k.Now()
	res := HTTPLoadResult{Duration: cfg.Duration}

	var issue func()
	issue = func() {
		if k.Now()-start >= cfg.Duration {
			return
		}
		dialAt := k.Now()
		var connectAt, requestAt time.Duration
		err := httpc.Get(server.IP(), apps.HTTPPort,
			func() { // connected
				connectAt = k.Now()
				requestAt = connectAt
				res.ConnectMs.Add(float64(connectAt-dialAt) / float64(time.Millisecond))
			},
			func() { // first response byte
				res.FirstResponseMs.Add(float64(k.Now()-requestAt) / float64(time.Millisecond))
			},
			func(r apps.FetchResult) { // complete
				if r.Err != nil || r.Status != 200 {
					res.Errors++
				} else {
					res.Fetches++
					res.BytesFetched += uint64(r.BodyBytes)
				}
				issue()
			})
		if err != nil {
			res.Errors++
		}
	}
	issue()

	if err := k.RunUntil(start + cfg.Duration + httpLoadDrain); err != nil {
		return res, err
	}
	res.FetchesPerSec = float64(res.Fetches) / cfg.Duration.Seconds()
	return res, nil
}
