package main

import (
	"fmt"
	"time"
)

// Scenario constants. The workloads reproduce product runners, and the
// values mirror theirs; TestCrossCheckCoreRunners holds the simulated
// results equal.
const (
	// defaultSeed is the seed whose fingerprints are pinned.
	defaultSeed = 1
	// benchWindow is the simulated measurement window of one run.
	benchWindow = 3 * time.Second

	floodWalkDepth = 64
	floodWalkPPS   = 8000
	// floodSettle is how long a flood runs before the measurement
	// starts, as in core's runners.
	floodSettle = 200 * time.Millisecond
	// iperfDrain is measure.RunTCPIperf's default drain after its window.
	iperfDrain = 50 * time.Millisecond

	// vpgPassphrase is the group passphrase core's bandwidth runner
	// provisions.
	vpgPassphrase = "validation"

	synChurnDepth = 64
	synChurnPPS   = 20000
	// synChurnSources is one short of core's default of 256 spoofed
	// sources. Cycled against 1,024 source ports, 255 sources give
	// ≈261k distinct flow keys, far more than the 1,024-entry table; 256
	// would give exactly 1,024 and almost no eviction.
	synChurnSources = 255
	// Probe-session timing, as core.RunStateflood runs it.
	sessionHandshake = 100 * time.Millisecond
	keepaliveEvery   = 250 * time.Millisecond
	sessionDrain     = 300 * time.Millisecond
	echoMsgBytes     = 8
)

// workload is one named scenario the benchmark runs.
type workload struct {
	name string
	// why is what the workload stresses and why it was chosen.
	why string
	// build sets a scenario up: testbed, policy, keys and traffic
	// generators, everything before the first kernel event.
	build func(seed int64, window time.Duration) (*scenario, error)
	// regime checks that a run stayed in the regime the workload exists
	// to measure.
	regime func(o outcome) error
}

var workloads = []*workload{
	{
		name: "flood-walk",
		why: "Fig. 3 regime: EFW with a linear 64-rule walk under an 8 kpps UDP flood while TCP collapses; " +
			"kernel, link, NIC receive path and flood generator work, crypto and conntrack idle",
		build: buildFloodWalk,
		regime: func(o outcome) error {
			if o.iperf.Mbps >= 1 {
				return fmt.Errorf("TCP did not collapse under the flood: %.3f Mbps", o.iperf.Mbps)
			}
			return nil
		},
	},
	{
		name: "vpg-bulk",
		why: "ADF VPG cards on both ends and no flood: every TCP segment and ACK is sealed and opened, " +
			"so VPG crypto, the TCP stack and the packet codec dominate while rule walk and flooder idle",
		build: buildVPGBulk,
		regime: func(o outcome) error {
			if o.iperf.Mbps < 10 || o.cryptoOps() == 0 {
				return fmt.Errorf("bulk transfer stalled: %.3f Mbps, %d crypto operations", o.iperf.Mbps, o.cryptoOps())
			}
			return nil
		},
	},
	{
		name: "syn-churn",
		why: "StatefulFW under a 20 kpps SYN flood from 255 spoofed sources: every flood packet inserts and " +
			"evicts a conntrack entry and misses the flow cache, the write path beside flood-walk's read-only walk",
		build: buildSYNChurn,
		regime: func(o outcome) error {
			if o.fp.Conntrack.Evicted == 0 || 2*o.fp.SessionEchoed >= o.fp.SessionSent {
				return fmt.Errorf("state table did not churn: %d evictions, %d of %d keepalives echoed",
					o.fp.Conntrack.Evicted, o.fp.SessionEchoed, o.fp.SessionSent)
			}
			return nil
		},
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
