package core

import (
	"time"

	"barbican/internal/nic"
	"barbican/internal/obs"
	"barbican/internal/obs/profile"
	"barbican/internal/obs/tracing"
	"barbican/internal/stack"
	"barbican/internal/trace"
)

// ObserveOptions selects which observability pillars ride along with
// a run. The metrics registry and flight recorder are always attached
// (and every processor's cost account always records); the packet
// tracer, the kernel profiler and the wire capture are opt-in.
type ObserveOptions struct {
	// SampleEvery is the flight-recorder tick; <= 0 uses
	// obs.DefaultSampleEvery.
	SampleEvery time.Duration
	// Trace attaches the packet tracer when Trace.SampleEvery > 0.
	Trace tracing.Options
	// Profile, when non-nil, attaches the wall-domain kernel profiler
	// and exports the always-on cost accounts.
	Profile *profile.Options
	// Capture taps the client's wire with a passive frame capture for
	// the whole run.
	Capture bool
}

// Instrumentation bundles one run's observability pillars: metrics
// registry, flight recorder, and the opt-in tracer, profiler and wire
// capture.
type Instrumentation struct {
	Registry *obs.Registry
	Recorder *obs.Recorder
	// Tracer is non-nil when the run was traced; export it with
	// Tracer.WritePerfetto and TraceExportOptions.
	Tracer *tracing.Tracer
	// Profiling is non-nil when the run was profiled; export its
	// CostData and KernelData with profile.Data.WritePprof.
	Profiling *Profiling
	// Capture is non-nil when the client's wire was captured; export
	// it with Capture.WritePCAP.
	Capture *trace.Capture

	// target is the system-under-test card, the authoritative source
	// of the per-reason drop totals embedded in trace exports.
	target *nic.NIC
}

// hosts lists the standard testbed hosts in a fixed order.
func (tb *Testbed) hosts() []*stack.Host {
	return []*stack.Host{tb.Client, tb.Target, tb.Attacker, tb.PolicyServer}
}

// testbedHostNames labels tb.hosts() in the same order.
var testbedHostNames = [...]string{"client", "target", "attacker", "policy-server"}

// observe is the testbed's one attach point: it turns opt into an
// Instrumentation. Kernel, switch, and every host's stack, card and
// link endpoint publish into a fresh registry sampled by a started
// flight recorder; the tracer is threaded through every pipeline
// component, the kernel gets the step sampler (the cost accounts are
// always on), and the capture taps the client's wire, each per opt.
func (tb *Testbed) observe(opt ObserveOptions) *Instrumentation {
	reg := obs.NewRegistry()
	obs.PublishKernel(reg, tb.Kernel)
	tb.Switch.PublishMetrics(reg)
	for i, h := range tb.hosts() {
		label := obs.L("host", testbedHostNames[i])
		h.PublishMetrics(reg, label)
		h.NIC().PublishMetrics(reg, label)
		h.NIC().Endpoint().PublishMetrics(reg, label)
		if rs := h.NIC().RuleSet(); rs != nil {
			rs.PublishRuleMetrics(reg, label)
		} else if hf := h.Firewall(); hf != nil && hf.RuleSet() != nil {
			hf.RuleSet().PublishRuleMetrics(reg, label)
		}
	}
	rec := obs.NewRecorder(tb.Kernel, reg, opt.SampleEvery)
	rec.Start()
	in := &Instrumentation{Registry: reg, Recorder: rec, target: tb.Target.NIC()}

	if opt.Trace.SampleEvery > 0 {
		in.Tracer = tracing.New(tb.Kernel, opt.Trace)
		for _, h := range tb.hosts() {
			h.SetTracer(in.Tracer)
			h.NIC().SetTracer(in.Tracer)
			h.NIC().Endpoint().SetTracer(in.Tracer)
		}
		tb.Switch.SetTracer(in.Tracer)
	}
	if opt.Profile != nil {
		in.Profiling = &Profiling{Kernel: profile.NewKernelProfiler(opt.Profile.KernelSampleEvery), tb: tb}
		tb.Kernel.SetStepProfiler(in.Profiling.Kernel)
	}
	if opt.Capture {
		in.Capture = trace.NewCapture(tb.Kernel)
		in.Capture.Tap(tb.Client.NIC().Endpoint())
	}
	return in
}
