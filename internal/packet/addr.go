// Package packet implements the wire formats used on the simulated
// network: Ethernet II framing, IPv4, TCP, UDP, and ICMP.
//
// All headers marshal to and parse from the real on-the-wire byte layout,
// including internet checksums, so captures produced by the simulator are
// byte-accurate and tooling (firewalls, NIC models, traces) operates on
// genuine packets rather than abstract records.
package packet

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// MAC is a 48-bit IEEE 802 MAC address.
type MAC [6]byte

// Broadcast is the Ethernet broadcast address ff:ff:ff:ff:ff:ff.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address as colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// ParseMAC parses a colon-separated hex MAC address.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return m, fmt.Errorf("packet: invalid MAC %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return m, fmt.Errorf("packet: invalid MAC %q: %v", s, err)
		}
		m[i] = byte(v)
	}
	return m, nil
}

// IP is an IPv4 address.
type IP [4]byte

// String formats the address in dotted-quad notation.
func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a big-endian 32-bit integer.
func (ip IP) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// IPFromUint32 converts a big-endian 32-bit integer to an address.
func IPFromUint32(v uint32) IP {
	return IP{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	var ip IP
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, fmt.Errorf("packet: invalid IPv4 address %q", s)
	}
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 8)
		if err != nil {
			return ip, fmt.Errorf("packet: invalid IPv4 address %q: %v", s, err)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// MustIP parses a dotted-quad IPv4 address and panics on error. It is
// intended for tests and static configuration.
func MustIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// Prefix is an IPv4 CIDR prefix used for firewall rule matching.
type Prefix struct {
	Addr IP
	Bits int // 0..32
}

var errBadPrefix = errors.New("packet: invalid prefix")

// NewPrefix returns a prefix after validating the mask length.
func NewPrefix(addr IP, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, errBadPrefix
	}
	return Prefix{Addr: addr, Bits: bits}, nil
}

// ParsePrefix parses "a.b.c.d/len". A bare address parses as a /32.
func ParsePrefix(s string) (Prefix, error) {
	addrStr, bitsStr, found := strings.Cut(s, "/")
	addr, err := ParseIP(addrStr)
	if err != nil {
		return Prefix{}, err
	}
	if !found {
		return Prefix{Addr: addr, Bits: 32}, nil
	}
	bits, err := strconv.Atoi(bitsStr)
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("packet: invalid prefix %q", s)
	}
	return Prefix{Addr: addr, Bits: bits}, nil
}

// MustPrefix parses a CIDR prefix and panics on error.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Contains reports whether ip falls within the prefix.
func (p Prefix) Contains(ip IP) bool {
	if p.Bits == 0 {
		return true
	}
	mask := ^uint32(0) << (32 - p.Bits)
	return ip.Uint32()&mask == p.Addr.Uint32()&mask
}

// String formats the prefix in CIDR notation.
func (p Prefix) String() string {
	return p.Addr.String() + "/" + strconv.Itoa(p.Bits)
}
