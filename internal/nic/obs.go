package nic

import (
	"barbican/internal/obs"
	"barbican/internal/obs/tracing"
)

// PublishMetrics registers the card's counters and processor state with
// the registry as collector closures. The packet fast path is untouched
// — the closures read the existing Stats fields only when a snapshot or
// flight-recorder tick gathers them, so an unsampled (or unregistered)
// card pays nothing.
func (n *NIC) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	counter := func(name, help string, read func() float64) {
		reg.MustRegisterFunc(name, help, obs.KindCounter, read, labels...)
	}
	gauge := func(name, help string, read func() float64) {
		reg.MustRegisterFunc(name, help, obs.KindGauge, read, labels...)
	}

	// Every drop is counted once, in the per-reason arrays, and
	// published once, as nic_drops_total{dir,reason}.
	drops := func(d *[tracing.NumDropReasons]uint64, r tracing.DropReason) func() float64 {
		return func() float64 { return float64(d[r]) }
	}
	rx, tx := &n.stats.RxDrops, &n.stats.TxDrops

	counter("nic_rx_frames_total", "Frames addressed to this card.",
		func() float64 { return float64(n.stats.RxFrames) })
	counter("nic_rx_allowed_total", "Ingress frames passed to the host.",
		func() float64 { return float64(n.stats.RxAllowed) })
	counter("nic_tx_requests_total", "Egress transmit requests from the host.",
		func() float64 { return float64(n.stats.TxRequests) })
	counter("nic_tx_allowed_total", "Egress frames accepted for transmission.",
		func() float64 { return float64(n.stats.TxAllowed) })

	// Per-reason drop taxonomy (see internal/obs/tracing.DropReason):
	// one series per direction × reason, reading the always-on arrays.
	for _, r := range tracing.DropReasons() {
		reg.MustRegisterFunc("nic_drops_total", "Frames dropped, by first-class drop reason.",
			obs.KindCounter,
			drops(rx, r),
			append([]obs.Label{obs.L("dir", "rx"), obs.L("reason", r.String())}, labels...)...)
		reg.MustRegisterFunc("nic_drops_total", "Frames dropped, by first-class drop reason.",
			obs.KindCounter,
			drops(tx, r),
			append([]obs.Label{obs.L("dir", "tx"), obs.L("reason", r.String())}, labels...)...)
	}

	counter("nic_sealed_total", "Datagrams sealed into VPG envelopes.",
		func() float64 { return float64(n.stats.Sealed) })
	counter("nic_opened_total", "VPG envelopes verified and opened.",
		func() float64 { return float64(n.stats.Opened) })
	counter("nic_lockups_total", "Times the card wedged (EFW Deny-All failure).",
		func() float64 { return float64(n.stats.Lockups) })

	counter("nic_degraded_entries_total", "Transitions into the degraded policy-plane state.",
		func() float64 { return float64(n.stats.DegradedEntries) })
	counter("nic_watchdog_resets_total", "Automatic watchdog recoveries to the last committed rule set.",
		func() float64 { return float64(n.stats.WatchdogResets) })
	counter("nic_degraded_pass_total", "Frames passed unfiltered fail-open while degraded.",
		func() float64 { return float64(n.stats.DegradedPass) })
	gauge("nic_degraded_state", "Policy-plane state (0 healthy, 1 degraded, 2 wedged).",
		func() float64 { return float64(n.DegradedState()) })

	if n.fcache != nil {
		counter("nic_flow_cache_hits_total", "Packets whose verdict was replayed from the per-flow cache.",
			func() float64 { return float64(n.fcache.hits) })
		counter("nic_flow_cache_misses_total", "Policy-subject packets that required a rule match.",
			func() float64 { return float64(n.fcache.misses) })
		counter("nic_flow_cache_evictions_total", "Cached flow verdicts displaced by the bounded cache.",
			func() float64 { return float64(n.fcache.evictions) })
		counter("nic_flow_cache_invalidations_total", "Whole-cache invalidations (policy commits and degraded-mode transitions).",
			func() float64 { return float64(n.fcache.invalidations) })
		gauge("nic_flow_cache_entries", "Flow verdicts currently cached.",
			func() float64 { return float64(n.fcache.idx.Len()) })
	}

	if n.ct != nil {
		gauge("nic_conntrack_entries", "Connections currently tracked in the bounded state table.",
			func() float64 { return float64(n.ct.Len()) })
		gauge("nic_conntrack_capacity", "State-table slot capacity.",
			func() float64 { return float64(n.ct.Cap()) })
		gauge("nic_conntrack_mem_bytes", "Card SRAM charged to the state table.",
			func() float64 { return float64(n.profile.ConntrackMemBytes()) })
		counter("nic_conntrack_created_total", "State-table entries created.",
			func() float64 { return float64(n.ct.Stats().Created) })
		counter("nic_conntrack_expired_total", "Entries reclaimed by per-state idle timeouts.",
			func() float64 { return float64(n.ct.Stats().Expired) })
		reg.MustRegisterFunc("nic_conntrack_evictions_total",
			"Live entries displaced to make room, by the table's eviction policy.",
			obs.KindCounter,
			func() float64 { return float64(n.ct.Stats().Evicted) },
			append([]obs.Label{obs.L("policy", n.ct.Policy().String())}, labels...)...)
	}

	gauge("nic_proc_queue_depth", "Descriptor-ring occupancy of the embedded processor.",
		func() float64 { return float64(n.proc.Queued()) })
	gauge("nic_proc_backlog_seconds", "Queued work on the embedded processor, in time.",
		func() float64 { return n.proc.Backlog().Seconds() })
	gauge("nic_proc_capacity_units", "Processor capacity in cost units/s (0 = wire speed).",
		n.proc.Capacity)
	counter("nic_proc_admitted_total", "Work items accepted by the processor.",
		func() float64 { return float64(n.proc.Admitted()) })
	counter("nic_proc_units_total", "Cost units accepted by the processor; its per-second rate over capacity is utilisation.",
		n.proc.UnitsDone)
}
