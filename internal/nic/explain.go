package nic

import (
	"fmt"
	"strings"
	"time"

	"barbican/internal/fw"
	"barbican/internal/link"
	"barbican/internal/nic/conntrack"
	"barbican/internal/packet"
	"barbican/internal/sim"
)

// ProfileByName maps a CLI device name to its calibrated card profile,
// shared by barbican explain and policyctl lint.
func ProfileByName(name string) (Profile, error) {
	switch strings.ToLower(name) {
	case "standard":
		return Standard(), nil
	case "efw":
		return EFW(), nil
	case "adf", "vpg":
		return ADF(), nil
	case "nextgen":
		return NextGen(), nil
	case "stateful":
		return Stateful(), nil
	default:
		return Profile{}, fmt.Errorf("unknown device %q (standard|efw|adf|nextgen|stateful)", name)
	}
}

// PacketSpec describes one hypothetical packet for explain-style
// replay against a rule set, as assembled from command-line flags.
type PacketSpec struct {
	Proto   string // tcp | udp | icmp
	Src     string
	Dst     string
	SrcPort int
	DstPort int
	Size    int    // IP datagram length in bytes
	Dir     string // in | out
	Sealed  bool   // packet arrives in a VPG envelope
	// Flags is the TCP control-bit list ("syn", "syn,ack", "rst", ...;
	// "none" for a bare segment). Empty defaults to "syn" — a fresh
	// connection attempt — which stateless evaluation never reads, so
	// pre-conntrack explain output is unchanged.
	Flags string
}

// Summary builds the packet summary and direction the firewall would
// see for this spec.
func (ps PacketSpec) Summary() (packet.Summary, fw.Direction, error) {
	var s packet.Summary
	switch strings.ToLower(ps.Proto) {
	case "tcp", "":
		s.Proto = packet.ProtoTCP
		s.HasPorts = true
	case "udp":
		s.Proto = packet.ProtoUDP
		s.HasPorts = true
	case "icmp":
		s.Proto = packet.ProtoICMP
	default:
		return s, 0, fmt.Errorf("unknown protocol %q (tcp|udp|icmp)", ps.Proto)
	}
	src, err := packet.ParseIP(ps.Src)
	if err != nil {
		return s, 0, fmt.Errorf("src: %w", err)
	}
	dst, err := packet.ParseIP(ps.Dst)
	if err != nil {
		return s, 0, fmt.Errorf("dst: %w", err)
	}
	s.Src, s.Dst = src, dst
	if s.HasPorts {
		s.SrcPort = uint16(ps.SrcPort)
		s.DstPort = uint16(ps.DstPort)
	}
	if s.Proto == packet.ProtoTCP {
		spec := ps.Flags
		if spec == "" {
			spec = "syn"
		}
		for _, tok := range strings.Split(spec, ",") {
			switch strings.TrimSpace(strings.ToLower(tok)) {
			case "syn":
				s.Flags |= packet.FlagSYN
			case "ack":
				s.Flags |= packet.FlagACK
			case "fin":
				s.Flags |= packet.FlagFIN
			case "rst":
				s.Flags |= packet.FlagRST
			case "psh":
				s.Flags |= packet.FlagPSH
			case "none", "":
			default:
				return s, 0, fmt.Errorf("unknown tcp flag %q (syn|ack|fin|rst|psh|none)", tok)
			}
		}
	}
	s.IPLen = ps.Size
	if s.IPLen <= 0 {
		s.IPLen = 40
	}
	s.Sealed = ps.Sealed
	var dir fw.Direction
	switch strings.ToLower(ps.Dir) {
	case "in", "":
		dir = fw.In
	case "out":
		dir = fw.Out
	default:
		return s, 0, fmt.Errorf("unknown direction %q (in|out)", ps.Dir)
	}
	return s, dir, nil
}

// Explanation is the predicted fate and cost of one packet replayed
// against a rule set on a given card profile — the simulator's
// equivalent of a policy "explain" command.
type Explanation struct {
	Summary   packet.Summary
	Dir       fw.Direction
	Profile   Profile
	Action    fw.Action
	RuleIndex int    // 1-based matched rule, 0 = default action
	RuleText  string // DSL rendering of the matched rule, "" for default
	Traversed int    // rules examined before the verdict

	// WalkCost is the rule-match cost: PerRuleCost × Traversed on a
	// linear profile, the flat CompiledLookupCost on a compiled one
	// (and 0 with no policy installed).
	WalkCost    float64
	BaseCost    float64
	CryptoCost  float64
	TotalCost   float64
	ServiceTime time.Duration // processor time at the profile's capacity
	MaxPPS      float64       // capacity / TotalCost; 0 = wire speed

	// Compiled-matcher / flow-cache state (NextGen-class profiles).
	Compiled        bool    // the profile compiles its rule set
	FlowCache       bool    // the profile caches per-flow verdicts
	CacheHitCost    float64 // match cost when the flow's verdict is cached
	CachedTotalCost float64 // total per-packet cost on a cache hit
	CachedMaxPPS    float64 // capacity / CachedTotalCost; 0 = wire speed or no cache

	// Conntrack decision, filled only when a state-table profile
	// evaluates a stateful policy (zero-valued otherwise, so stateless
	// explain output is byte-unchanged). The replay seeds the scratch
	// card's table with the assumed prior flow history, so age and
	// transition are real table observations, not guesses.
	Stateful     bool               // conntrack was consulted
	ConnState    fw.ConnState       // classification the rules matched on
	CTPrior      string             // assumed prior flow history ("none"|"new"|"established")
	CTFound      bool               // a tracked entry existed at lookup
	CTAge        time.Duration      // entry age at lookup
	CTBefore     conntrack.TCPState // entry state before this packet
	CTAfter      conntrack.TCPState // entry state after this packet
	CTInvalid    bool               // dropped by conntrack before rule evaluation
	CTCreated    bool               // this packet created the entry
	CTLookupCost float64
	CTInsertCost float64 // charged only when the packet creates an entry
}

// seedPrior replays the assumed prior history of the subject flow into
// a scratch conntrack table ("none" leaves it empty, "new" the flow's
// unanswered opening packet, "established" a completed exchange) and
// returns the virtual time at which the subject packet then arrives —
// one second later, so entry ages in the explanation are non-trivial.
func seedPrior(ct *conntrack.Table, s packet.Summary, prior string) time.Duration {
	replay := func(x packet.Summary, at time.Duration) {
		ct.Classify(x, at)
		ct.Commit(x, at)
	}
	rev := s
	rev.Src, rev.Dst = s.Dst, s.Src
	rev.SrcPort, rev.DstPort = s.DstPort, s.SrcPort
	switch prior {
	case "new":
		open := s
		if s.Proto == packet.ProtoTCP {
			open.Flags = packet.FlagSYN
		}
		replay(open, 0)
	case "established":
		switch s.Proto {
		case packet.ProtoTCP:
			syn := s
			syn.Flags = packet.FlagSYN
			replay(syn, 0)
			synack := rev
			synack.Flags = packet.FlagSYN | packet.FlagACK
			replay(synack, 0)
			ack := s
			ack.Flags = packet.FlagACK
			replay(ack, 0)
		case packet.ProtoICMP:
			// Related ICMP rides a tracked connection between the same
			// endpoints; seed one.
			tcp := s
			tcp.Proto = packet.ProtoTCP
			tcp.HasPorts = true
			tcp.SrcPort, tcp.DstPort = 40000, 5001
			tcp.Flags = packet.FlagSYN
			replay(tcp, 0)
		default:
			replay(s, 0)
			replay(rev, 0)
		}
	}
	return time.Second
}

// Explain decides one packet summary against a rule set (nil = no
// policy) with the card's own policy stage and reports its verdict and
// per-stage cost on the profile. prior is the assumed conntrack history
// of the subject flow: "none" (or "") for an untracked flow, "new" for
// an unanswered opening packet, "established" for a completed exchange.
// The packet runs on a private scratch card holding a copy of the rule
// set, with the history replayed into its table, so no live card, table
// or rule counter is touched.
func Explain(p Profile, rs *fw.RuleSet, s packet.Summary, dir fw.Direction, prior string) Explanation {
	k := sim.NewKernel()
	ep, _ := link.New(k, link.Config{})
	n := New(k, packet.MAC{}, p, ep)
	if rs != nil {
		n.InstallRuleSet(fw.MustRuleSet(rs.Default(), rs.Rules()...))
	}
	var before conntrack.PeekInfo
	found := false
	if n.ct != nil {
		if prior == "" {
			prior = "none"
		}
		_ = k.RunUntil(seedPrior(n.ct, s, prior)) // no events: only the clock moves
		before, found = n.ct.Peek(s, k.Now())
	}
	var d decision
	n.policyStage(dir, &s, false, 0, &d)

	e := Explanation{Summary: s, Dir: dir, Profile: p, Action: d.verdict.Action,
		RuleIndex: d.verdict.Index, Traversed: d.verdict.Traversed}
	if d.verdict.Rule != nil {
		e.RuleText = d.verdict.Rule.String()
	}
	if d.cs != fw.StateNone {
		e.Stateful = true
		e.CTPrior = prior
		e.ConnState = d.cs
		e.CTLookupCost = d.lookup
		e.CTInsertCost = d.insert
		// The NIC fast path drops INVALID before the rules see it.
		e.CTInvalid = d.cs == fw.StateInvalid
		if e.CTInvalid {
			e.Action = fw.Deny
		}
		if found {
			e.CTFound, e.CTAge, e.CTBefore = true, before.Age, before.TCP
		}
		if after, ok := n.ct.Peek(s, k.Now()); ok {
			e.CTAfter = after.TCP
			e.CTCreated = !found
		}
	}
	e.Compiled = p.CompiledMatch
	e.FlowCache = p.FlowCacheSize > 0
	e.CacheHitCost = p.CacheHitCost
	e.BaseCost, e.WalkCost, e.CryptoCost = p.CostPartsPath(d.path, d.verdict.Traversed, d.cryptoBytes)
	e.TotalCost = e.BaseCost + e.WalkCost + e.CryptoCost + e.CTLookupCost + e.CTInsertCost
	e.ServiceTime = p.ServiceTime(e.TotalCost)
	if p.CapacityUnits > 0 && e.TotalCost > 0 {
		e.MaxPPS = p.CapacityUnits / e.TotalCost
	}
	if e.FlowCache && rs != nil && !e.CTInvalid {
		// Classification precedes the cache, so a hit still pays the
		// lookup (the insert happened on the flow's first packet).
		base, hit, crypto := p.CostPartsPath(MatchCacheHit, 0, d.cryptoBytes)
		e.CachedTotalCost = base + hit + crypto + e.CTLookupCost
		if p.CapacityUnits > 0 && e.CachedTotalCost > 0 {
			e.CachedMaxPPS = p.CapacityUnits / e.CachedTotalCost
		}
	}
	return e
}

// Render formats the explanation for terminal output. The output is a
// pure function of the inputs (no clocks, no maps), so identical
// invocations are byte-identical regardless of parallelism.
func (e Explanation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packet: %s %s (%d-byte IP)\n", e.Dir, e.Summary.String(), e.Summary.IPLen)
	fmt.Fprintf(&b, "device: %s", e.Profile.Name)
	switch {
	case e.Profile.CapacityUnits > 0 && e.Compiled:
		fmt.Fprintf(&b, " (capacity %.0f units/s, base %.4g, compiled lookup %.4g, cache hit %.4g)",
			e.Profile.CapacityUnits, e.Profile.BaseCost, e.Profile.CompiledLookupCost, e.Profile.CacheHitCost)
	case e.Profile.CapacityUnits > 0:
		fmt.Fprintf(&b, " (capacity %.0f units/s, base %.4g, per-rule %.4g)", e.Profile.CapacityUnits, e.Profile.BaseCost, e.Profile.PerRuleCost)
	default:
		b.WriteString(" (wire speed, no filtering cost)")
	}
	b.WriteByte('\n')
	if e.Stateful {
		fmt.Fprintf(&b, "conntrack: state %v", e.ConnState)
		switch {
		case e.CTFound:
			fmt.Fprintf(&b, " (entry age %v, transition %v → %v)", e.CTAge, e.CTBefore, e.CTAfter)
		case e.CTCreated:
			fmt.Fprintf(&b, " (no entry → %v created)", e.CTAfter)
		default:
			b.WriteString(" (no tracked entry)")
		}
		fmt.Fprintf(&b, " [assumed prior: %s]\n", e.CTPrior)
	}
	switch {
	case e.CTInvalid:
		fmt.Fprintf(&b, "verdict: deny by conntrack (ctstate INVALID, dropped before rule evaluation)\n")
	case e.RuleIndex > 0:
		fmt.Fprintf(&b, "verdict: %v by rule %d after traversing %d rule(s)\n", e.Action, e.RuleIndex, e.Traversed)
		fmt.Fprintf(&b, "  rule %d: %s\n", e.RuleIndex, e.RuleText)
	case e.Traversed > 0:
		fmt.Fprintf(&b, "verdict: %v by default action after traversing all %d rule(s)\n", e.Action, e.Traversed)
	default:
		fmt.Fprintf(&b, "verdict: %v (no policy installed)\n", e.Action)
	}
	fmt.Fprintf(&b, "predicted cost:\n")
	if e.Compiled {
		fmt.Fprintf(&b, "  lookup      %8.1f units (compiled classifier, flat at any depth)\n", e.WalkCost)
	} else {
		fmt.Fprintf(&b, "  rule walk   %8.1f units (%d × %.4g)\n", e.WalkCost, e.Traversed, e.Profile.PerRuleCost)
	}
	fmt.Fprintf(&b, "  base        %8.1f units\n", e.BaseCost)
	if e.CTLookupCost > 0 {
		fmt.Fprintf(&b, "  ct lookup   %8.1f units\n", e.CTLookupCost)
	}
	if e.CTInsertCost > 0 {
		fmt.Fprintf(&b, "  ct insert   %8.1f units (new entry committed)\n", e.CTInsertCost)
	}
	if e.CryptoCost > 0 {
		fmt.Fprintf(&b, "  vpg crypto  %8.1f units\n", e.CryptoCost)
	}
	fmt.Fprintf(&b, "  total       %8.1f units", e.TotalCost)
	if e.Profile.CapacityUnits > 0 {
		fmt.Fprintf(&b, " → %v on card, ≈ %.0f pkt/s sustainable", e.ServiceTime, e.MaxPPS)
	}
	b.WriteByte('\n')
	if e.FlowCache && e.CachedTotalCost > 0 {
		fmt.Fprintf(&b, "  cached flow %8.1f units match → total %.1f units", e.CacheHitCost, e.CachedTotalCost)
		if e.Profile.CapacityUnits > 0 {
			fmt.Fprintf(&b, ", ≈ %.0f pkt/s sustainable", e.CachedMaxPPS)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
