package telemetry

import (
	"fmt"
	"time"

	"barbican/internal/obs"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// SilenceAfter arms the collector's staleness watchdog: a device that
// has reported at least once and then stays quiet for longer than this
// (3.5 report intervals) is fed to its detector as a hot "silence"
// sample. Loss of telemetry during a flood is itself a signal — the EFW
// Deny-All lockup silences its own victim. The watchdog sweeps every
// SilenceAfter / 2.
const SilenceAfter = 7 * ReportInterval / 2

// CollectorConfig configures the fleet-health collector.
type CollectorConfig struct {
	// OnAlert fires whenever a device's detector enters AlertAlerting,
	// with the collector's virtual time — the hook scenarios use to
	// trigger a responsive blocklist push.
	OnAlert func(device string, at time.Duration)
}

// DeviceHealth is the collector's model of one device.
type DeviceHealth struct {
	Device string
	// Last is the most recent report; LastAt its collector arrival
	// time in virtual time.
	Last   Report
	LastAt time.Duration
	// Reports counts accepted reports; Gaps counts sequence numbers
	// skipped between them — telemetry the management network lost.
	Reports uint64
	Gaps    uint64
	// Detector is the device's flood-onset state machine.
	Detector *Detector
}

// Collector listens on the policy server's management interface,
// decodes agent reports, maintains per-device health, and runs a
// deterministic flood-onset detector per device. Device iteration
// order is Track/arrival order — fixed by scenario construction, never
// map order — so metric registration and rendered fleet tables are
// deterministic.
type Collector struct {
	kernel *sim.Kernel
	sock   *stack.UDPSocket
	cfg    CollectorConfig

	devices map[string]*DeviceHealth
	order   []string

	reports uint64
	corrupt uint64
	bytes   uint64
}

// NewCollector binds TelemetryPort on h (normally the policy server)
// and starts accepting reports.
func NewCollector(h *stack.Host, cfg CollectorConfig) (*Collector, error) {
	sock, err := h.BindUDP(TelemetryPort)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bind collector: %w", err)
	}
	c := &Collector{
		kernel:  h.Kernel(),
		sock:    sock,
		cfg:     cfg,
		devices: make(map[string]*DeviceHealth),
	}
	sock.OnRecv = func(_ packet.IP, _ uint16, payload []byte) { c.ingest(payload) }
	var sweepFn func(any)
	sweepFn = func(any) {
		c.sweepSilence()
		c.kernel.AfterCall(SilenceAfter/2, sweepFn, nil)
	}
	c.kernel.AfterCall(SilenceAfter/2, sweepFn, nil)
	return c, nil
}

// sweepSilence feeds a hot "silence" sample to every tracked device
// whose report stream has gone stale, in tracking order.
func (c *Collector) sweepSilence() {
	now := c.kernel.Now()
	for _, name := range c.order {
		h := c.devices[name]
		if h.Reports == 0 || now-h.LastAt <= SilenceAfter {
			continue
		}
		state, changed := h.Detector.ObserveSilence(now)
		if changed && state == AlertAlerting && c.cfg.OnAlert != nil {
			c.cfg.OnAlert(name, now)
		}
	}
}

// Track pre-registers a device so its health entry (and any metrics
// registered against it) exists before the first report arrives, in a
// code-ordered position independent of network timing.
func (c *Collector) Track(device string) *DeviceHealth {
	if h, ok := c.devices[device]; ok {
		return h
	}
	h := &DeviceHealth{Device: device, Detector: NewDetector()}
	c.devices[device] = h
	c.order = append(c.order, device)
	return h
}

func (c *Collector) ingest(payload []byte) {
	r, n, err := DecodeReport(payload)
	if err != nil || r == nil || n != len(payload) {
		// Corrupt, truncated, or trailing-garbage datagram: the
		// checksum (or framing) caught it. Count and drop — a mangled
		// report must never perturb a device's health model.
		c.corrupt++
		return
	}
	c.reports++
	c.bytes += uint64(n)

	h := c.Track(r.Device)
	if h.Reports > 0 && r.Seq > h.Last.Seq+1 {
		h.Gaps += uint64(r.Seq - h.Last.Seq - 1)
	}
	now := c.kernel.Now()
	h.Reports++
	if r.Seq >= h.Last.Seq || h.Reports == 1 {
		h.Last = *r
		h.LastAt = now
	}
	state, changed := h.Detector.Observe(now, r)
	if changed && state == AlertAlerting && c.cfg.OnAlert != nil {
		c.cfg.OnAlert(r.Device, now)
	}
}

// Devices returns tracked device names in Track/arrival order.
func (c *Collector) Devices() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// Health returns the model for one device, or nil if never tracked.
func (c *Collector) Health(device string) *DeviceHealth {
	return c.devices[device]
}

// Totals returns (accepted, corrupt, bytes) across all devices.
func (c *Collector) Totals() (reports, corrupt, bytes uint64) {
	return c.reports, c.corrupt, c.bytes
}

// PublishMetrics registers fleet-wide counters plus per-device gauges
// for every device tracked so far. Call after Track()ing the fleet so
// the per-device series exist (and export) in deterministic order.
func (c *Collector) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	counter := func(name, help string, read func() float64) {
		reg.MustRegisterFunc(name, help, obs.KindCounter, read, labels...)
	}
	counter("telemetry_reports_total", "Telemetry reports accepted by the collector.",
		func() float64 { return float64(c.reports) })
	counter("telemetry_corrupt_total", "Telemetry datagrams rejected as corrupt or malformed.",
		func() float64 { return float64(c.corrupt) })
	counter("telemetry_report_bytes_total", "Accepted telemetry payload bytes.",
		func() float64 { return float64(c.bytes) })
	reg.MustRegisterFunc("telemetry_devices", "Devices tracked by the collector.",
		obs.KindGauge, func() float64 { return float64(len(c.order)) }, labels...)

	for _, name := range c.order {
		h := c.devices[name]
		dl := append([]obs.Label{obs.L("device", name)}, labels...)
		reg.MustRegisterFunc("telemetry_device_reports_total",
			"Reports accepted from this device.",
			obs.KindCounter, func() float64 { return float64(h.Reports) }, dl...)
		reg.MustRegisterFunc("telemetry_device_gaps_total",
			"Sequence numbers missing from this device's report stream.",
			obs.KindCounter, func() float64 { return float64(h.Gaps) }, dl...)
		reg.MustRegisterFunc("telemetry_device_staleness_seconds",
			"Virtual time since this device's last accepted report.",
			obs.KindGauge, func() float64 {
				if h.Reports == 0 {
					return 0
				}
				return (c.kernel.Now() - h.LastAt).Seconds()
			}, dl...)
		reg.MustRegisterFunc("telemetry_device_conntrack_occupancy",
			"State-table fill ratio from this device's last report (0 on stateless cards).",
			obs.KindGauge, func() float64 { return h.Last.CTOccupancy() }, dl...)
		reg.MustRegisterFunc("telemetry_device_alert_state",
			"Detector state (0 healthy, 1 suspect, 2 alerting, 3 recovering).",
			obs.KindGauge, func() float64 { return float64(h.Detector.State()) }, dl...)
		reg.MustRegisterFunc("telemetry_device_alerts_total",
			"Times this device's detector entered alerting.",
			obs.KindCounter, func() float64 { return float64(h.Detector.Alerts()) }, dl...)
	}
}
