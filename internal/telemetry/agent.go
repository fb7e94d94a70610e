package telemetry

import (
	"fmt"
	"time"

	"barbican/internal/nic"
	"barbican/internal/obs"
	"barbican/internal/packet"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// ReportInterval is the agent's report cadence. 100 ms is an order of
// magnitude faster than human polling and an order slower than the
// card's 1 ms exhaustion threshold — detection latency is then
// dominated by the detector's hysteresis, not the sampling clock.
const ReportInterval = 100 * time.Millisecond

// AgentConfig configures one host's telemetry agent.
type AgentConfig struct {
	// Device is the fleet name stamped into every report (the policy
	// plane's device name).
	Device string
	// Collector is the policy server's IP; reports go to its
	// TelemetryPort.
	Collector packet.IP
	// RulesVersion, when non-nil, supplies the installed policy
	// version for each snapshot — typically policy.Agent's
	// InstalledVersion, taken as a closure so telemetry needs no
	// policy import.
	RulesVersion func() uint32
}

// Agent periodically snapshots its host's NIC and sends a wire-encoded
// Report to the collector over plain UDP on the shared management
// network. The datagram rides the same links as policy pushes, pays
// the card's egress cost-model units, and passes through any fault
// plan attached to either endpoint — telemetry loss under attack is a
// phenomenon this plane exists to measure, not an error.
//
// Unlike the TCP policy channel, UDP telemetry gets no management
// bypass on the card: a fail-closed or egress-deny policy silences the
// agent, which the collector observes as staleness. That is realistic
// and intentional.
type Agent struct {
	kernel *sim.Kernel
	card   *nic.NIC
	sock   *stack.UDPSocket
	cfg    AgentConfig

	running bool
	stopped bool
	tickFn  func(any)

	seq       uint32
	sent      uint64
	sendFails uint64

	// report and scratch are reused across ticks so the steady-state
	// snapshot+encode path allocates nothing.
	report  Report
	scratch []byte
}

// NewAgent binds an ephemeral UDP socket on h and returns an agent
// ready to Start.
func NewAgent(h *stack.Host, cfg AgentConfig) (*Agent, error) {
	if cfg.Device == "" {
		return nil, fmt.Errorf("telemetry: agent needs a device name")
	}
	if len(cfg.Device) > maxDeviceName {
		return nil, fmt.Errorf("telemetry: device name %q longer than %d bytes", cfg.Device, maxDeviceName)
	}
	sock, err := h.BindUDP(0)
	if err != nil {
		return nil, fmt.Errorf("telemetry: bind agent socket: %w", err)
	}
	a := &Agent{
		kernel:  h.Kernel(),
		card:    h.NIC(),
		sock:    sock,
		cfg:     cfg,
		scratch: make([]byte, 0, maxReportSize),
	}
	a.report.Device = cfg.Device
	a.tickFn = func(any) { a.tick() }
	return a, nil
}

// Start schedules the periodic report loop; the first report goes out
// one interval from now. Idempotent while running.
func (a *Agent) Start() {
	if a.running || a.stopped {
		return
	}
	a.running = true
	a.kernel.AfterCall(ReportInterval, a.tickFn, nil)
}

// Stop halts the loop permanently.
func (a *Agent) Stop() {
	a.stopped = true
	a.running = false
}

func (a *Agent) tick() {
	if a.stopped {
		return
	}
	a.ReportNow()
	a.kernel.AfterCall(ReportInterval, a.tickFn, nil)
}

// Snapshot fills r from the card's current counters without sending.
//
//barbican:noalloc
func (a *Agent) Snapshot(r *Report) {
	stats := a.card.Stats()
	flow := a.card.FlowCacheStats()
	r.Seq = a.seq
	r.SentAt = a.kernel.Now()
	if a.cfg.RulesVersion != nil {
		r.RulesVersion = a.cfg.RulesVersion()
	} else {
		r.RulesVersion = 0
	}
	r.State = a.card.DegradedState()
	r.Mode = a.card.FailMode()
	r.Locked = a.card.Locked()
	r.Backlog = a.card.Backlog()
	r.QueueDepth = uint32(a.card.QueueDepth())
	r.RxFrames = stats.RxFrames
	r.RxAllowed = stats.RxAllowed
	r.FlowHits = flow.Hits
	r.FlowMisses = flow.Misses
	if ct := a.card.Conntrack(); ct != nil {
		r.CTEntries = uint32(ct.Len())
		r.CTCapacity = uint32(ct.Cap())
		r.CTEvictions = ct.Stats().Evicted
	} else {
		r.CTEntries, r.CTCapacity, r.CTEvictions = 0, 0, 0
	}
	r.RxDrops, r.TxDrops = a.card.DropCounts()
}

// ReportNow snapshots, encodes into the reused scratch buffer, and
// sends one report immediately, returning whether the host accepted
// the datagram for transmission (false counts as a send failure: no
// route, oversize, or socket closed — not wire loss, which only the
// collector's gap counters can see).
func (a *Agent) ReportNow() bool {
	a.seq++
	a.Snapshot(&a.report)
	a.scratch = AppendReport(a.scratch[:0], &a.report)
	ok := a.sock.SendTo(a.cfg.Collector, TelemetryPort, a.scratch)
	if ok {
		a.sent++
	} else {
		a.sendFails++
	}
	return ok
}

// Sent returns (accepted, failed) report counts at the sending host.
func (a *Agent) Sent() (sent, failed uint64) { return a.sent, a.sendFails }

// PublishMetrics registers the agent's counters on reg.
func (a *Agent) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	labels = append([]obs.Label{obs.L("device", a.cfg.Device)}, labels...)
	reg.MustRegisterFunc("telemetry_agent_reports_total",
		"Telemetry reports accepted for transmission.",
		obs.KindCounter, func() float64 { return float64(a.sent) }, labels...)
	reg.MustRegisterFunc("telemetry_agent_send_failures_total",
		"Telemetry reports the host refused to transmit.",
		obs.KindCounter, func() float64 { return float64(a.sendFails) }, labels...)
}
