// Package barbican is a simulation-based reproduction of "Barbarians in
// the Gate: An Experimental Validation of NIC-based Distributed Firewall
// Performance and Flood Tolerance" (Ihde & Sanders, DSN 2006).
//
// The paper's proprietary hardware — the 3Com Embedded Firewall (EFW)
// and the Autonomic Distributed Firewall (ADF), both built on the 3CR990
// NIC — is unobtainable, so this repository rebuilds the entire testbed
// in a deterministic discrete-event simulator: the 100 Mbps switched
// network, the filtering cards (calibrated embedded-processor cost
// models), the virtual private groups (real AES-256-GCM cryptography),
// the host TCP/IP stacks, the central policy server and firewall agents,
// and the measurement toolchain (iperf, http_load, and a flood
// generator). See DESIGN.md for the system inventory and EXPERIMENTS.md
// for paper-vs-measured results.
//
// Layout:
//
//	internal/core        the validation methodology (testbed, scenarios, DoS search)
//	internal/experiment  runners that regenerate every figure and table
//	internal/{sim,packet,link,fw,vpg,nic,hostfw,stack,apps,measure,policy}
//	                     the substrates
//	cmd/barbican         CLI that prints the paper's figures and tables;
//	                     barbican flood explores one device's flood tolerance
//	cmd/policyctl        policy-file tooling and a distribution demo
//	examples/            runnable walkthroughs of the public API
package barbican
