package core

import "barbican/internal/obs/profile"

// Profiling is one profiled run's export side: the cost domain read
// from every enforcement point's always-on account, and one wall-domain
// KernelProfiler sampling the event loop. The testbed's attach point
// (observe) creates it.
type Profiling struct {
	Kernel *profile.KernelProfiler

	tb *Testbed
}

// CostData renders every enforcement point's cost account into one
// cost-domain profile, in host order, each card followed by its host's
// firewall (iptables) if it has one. The result is exact and
// deterministic: identical scenarios produce identical profiles, and
// each point's stacks sum to its processor's units done.
func (p *Profiling) CostData() *profile.Data {
	d := profile.NewData(profile.CostSampleTypes, "cost")
	d.Comments = append(d.Comments, "cost-domain card profile: exact per-packet attribution in virtual cost units")
	for i, h := range p.tb.hosts() {
		h.NIC().Processor().AppendCostSamples(d, testbedHostNames[i])
		if hf := h.Firewall(); hf != nil {
			hf.Processor().AppendCostSamples(d, testbedHostNames[i])
		}
	}
	return d
}

// KernelData exports the wall-domain kernel profile. Event counts are
// deterministic; wall-nanosecond values are measured on the host.
func (p *Profiling) KernelData() *profile.Data { return p.Kernel.Data() }
