package fw

import "barbican/internal/packet"

// This file holds the small geometric vocabulary the exact semantics
// engine (internal/fw/sem) shares with compile.go's segment tables: a
// validated rule's match space, within one discrete traffic class, is
// a product of inclusive integer intervals. Keeping the interval
// constructors here — next to the Matches implementation they must
// mirror — means the engine and the compiled matcher cut the packet
// space at the same boundaries.

func interval(lo, hi uint32) [2]uint32 { return [2]uint32{lo, hi} }

// prefixInterval returns the [lo, hi] address range a prefix spans.
func prefixInterval(p packet.Prefix) [2]uint32 {
	if p.Bits <= 0 {
		return interval(0, ^uint32(0))
	}
	mask := ^uint32(0) << (32 - p.Bits)
	lo := p.Addr.Uint32() & mask
	return interval(lo, lo|^mask)
}

// portInterval is a port range as an inclusive interval; the Any range
// spans the full axis.
func portInterval(r PortRange) [2]uint32 {
	if r.Any() {
		return interval(0, 65535)
	}
	return interval(uint32(r.Lo), uint32(r.Hi))
}

// Span is an inclusive integer interval [Lo, Hi] on one match axis.
type Span struct {
	Lo, Hi uint32
}

// Contains reports whether v falls in the span.
func (s Span) Contains(v uint32) bool { return s.Lo <= v && v <= s.Hi }

// PrefixSpan returns the address range a prefix matches: the full
// 32-bit axis for the zero (wildcard) prefix.
func PrefixSpan(p packet.Prefix) Span {
	iv := prefixInterval(p)
	return Span{Lo: iv[0], Hi: iv[1]}
}

// PortSpan returns the port range a PortRange matches: the full
// 16-bit axis for the Any range.
func PortSpan(r PortRange) Span {
	iv := portInterval(r)
	return Span{Lo: iv[0], Hi: iv[1]}
}

// ProtoSpan returns the protocol interval a rule matches. VPG rules
// ignore the protocol of the (encrypted) envelope, and Proto == 0 is
// the wildcard, so both span the full 8-bit axis.
func ProtoSpan(r *Rule) Span {
	if r.IsVPG() || r.Proto == 0 {
		return Span{Lo: 0, Hi: 255}
	}
	return Span{Lo: uint32(r.Proto), Hi: uint32(r.Proto)}
}

// SrcSpan returns the source-address interval the rule matches.
func SrcSpan(r *Rule) Span { return PrefixSpan(r.Src) }

// DstSpan returns the destination-address interval the rule matches.
func DstSpan(r *Rule) Span { return PrefixSpan(r.Dst) }

// SrcPortSpan returns the source-port interval the rule matches (the
// full axis for VPG rules, whose port ranges are Any by validation).
func SrcPortSpan(r *Rule) Span { return PortSpan(r.SrcPorts) }

// DstPortSpan returns the destination-port interval the rule matches.
func DstPortSpan(r *Rule) Span { return PortSpan(r.DstPorts) }

// AppliesTo reports whether the rule can match any packet in the
// discrete traffic class (dir, sealed): the class-mask logic of
// Rule.Matches and CompiledSet.EvalState. VPG rules match sealed envelopes
// inbound and the cleartext traffic they will seal outbound; plain
// rules never match sealed envelopes. dir must be In or Out.
func (r *Rule) AppliesTo(dir Direction, sealed bool) bool {
	if r.Direction != Both && r.Direction != dir {
		return false
	}
	if r.IsVPG() {
		if dir == In {
			return sealed
		}
		return !sealed
	}
	return !sealed
}

// MatchesPortless reports whether the rule can match packets that
// carry no transport ports (ICMP, non-first fragments, sealed
// envelopes): true unless the rule constrains either port range.
func (r *Rule) MatchesPortless() bool {
	return r.SrcPorts.Any() && r.DstPorts.Any()
}
