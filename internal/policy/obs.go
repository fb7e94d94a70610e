package policy

import "barbican/internal/obs"

// PublishMetrics registers the firewall agent's counters with the
// registry as collector closures.
func (a *Agent) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegisterFunc("policy_agent_installs_total", "Policies installed on the card.",
		obs.KindCounter, func() float64 { return float64(a.stats.Installs) }, labels...)
	reg.MustRegisterFunc("policy_agent_auth_fails_total", "Pushes rejected for bad signatures.",
		obs.KindCounter, func() float64 { return float64(a.stats.AuthFails) }, labels...)
	reg.MustRegisterFunc("policy_agent_parse_fails_total", "Pushes rejected as unparseable.",
		obs.KindCounter, func() float64 { return float64(a.stats.ParseFails) }, labels...)
	reg.MustRegisterFunc("policy_agent_stale_drops_total", "Pushes older than the installed version.",
		obs.KindCounter, func() float64 { return float64(a.stats.StaleDrops) }, labels...)
	reg.MustRegisterFunc("policy_agent_idempotent_acks_total", "Re-pushes of the installed version acked without reinstall.",
		obs.KindCounter, func() float64 { return float64(a.stats.IdempotentAcks) }, labels...)
	reg.MustRegisterFunc("policy_agent_timeout_aborts_total", "Push connections reaped by the read deadline.",
		obs.KindCounter, func() float64 { return float64(a.stats.TimeoutAborts) }, labels...)
	reg.MustRegisterFunc("policy_agent_aborted_pushes_total", "Push connections torn down mid-message.",
		obs.KindCounter, func() float64 { return float64(a.stats.AbortedPushes) }, labels...)
	reg.MustRegisterFunc("policy_agent_installed_version", "Installed policy version.",
		obs.KindGauge, func() float64 { return float64(a.installedVersion) }, labels...)
	reg.MustRegisterFunc("policy_agent_last_good_timestamp_seconds", "Virtual time of the last successful install or idempotent ack (0 until one lands).",
		obs.KindGauge, func() float64 {
			_, at, ok := a.LastGood()
			if !ok {
				return 0
			}
			return at.Seconds()
		}, labels...)
}

// PublishMetrics registers the policy server's distribution counters
// with the registry as collector closures.
func (s *Server) PublishMetrics(reg *obs.Registry, labels ...obs.Label) {
	reg.MustRegisterFunc("policy_server_pushes_total", "Push calls accepted.",
		obs.KindCounter, func() float64 { return float64(s.stats.Pushes) }, labels...)
	reg.MustRegisterFunc("policy_server_attempts_total", "Push connection attempts, including retries.",
		obs.KindCounter, func() float64 { return float64(s.stats.Attempts) }, labels...)
	reg.MustRegisterFunc("policy_server_retries_total", "Push attempts after the first.",
		obs.KindCounter, func() float64 { return float64(s.stats.Retries) }, labels...)
	reg.MustRegisterFunc("policy_server_successes_total", "Pushes settled with an agent OK.",
		obs.KindCounter, func() float64 { return float64(s.stats.Successes) }, labels...)
	reg.MustRegisterFunc("policy_server_failures_total", "Pushes settled terminally without an agent OK.",
		obs.KindCounter, func() float64 { return float64(s.stats.Failures) }, labels...)
}
