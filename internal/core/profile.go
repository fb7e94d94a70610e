package core

import "barbican/internal/obs/profile"

// Profiling bundles one run's attached profilers: a cost-domain
// CardProfiler per testbed NIC (exact per-packet attribution) and one
// wall-domain KernelProfiler sampling the event loop. The testbed's
// attach point (observe) creates it.
type Profiling struct {
	Cards  []*profile.CardProfiler // testbed host order: client, target, attacker, policy-server
	Kernel *profile.KernelProfiler
}

// CostData merges every card's attributed samples into one
// cost-domain profile, in host order. The result is exact and
// deterministic: identical scenarios produce identical profiles.
func (p *Profiling) CostData() *profile.Data {
	d := profile.NewData(profile.CostSampleTypes, "cost")
	d.Comments = append(d.Comments, "cost-domain card profile: exact per-packet attribution in virtual cost units")
	for _, cp := range p.Cards {
		cp.AppendCostSamples(d)
	}
	return d
}

// KernelData exports the wall-domain kernel profile. Event counts are
// deterministic; wall-nanosecond values are measured on the host.
func (p *Profiling) KernelData() *profile.Data { return p.Kernel.Data() }
