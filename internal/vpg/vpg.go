// Package vpg implements virtual private groups, the ADF's encrypted
// host-to-host channels (Carney et al., "Virtual Private Groups").
//
// A group is a set of member hosts sharing a group key. Traffic between
// members is sealed into envelopes with AES-256-GCM, which provides
// confidentiality, integrity, and sender authentication: the additional
// data binds the sender and destination addresses and the envelope
// header, and Open checks group membership. Receivers keep a per-sender
// anti-replay window.
//
// The GCM nonce is the sender address followed by the sequence number,
// so it is unique per (group key, sender, seq). A sealer that restarted
// its sequence under the same key would repeat nonces; sequence numbers
// must never repeat for one sender and key.
//
// The real ADF's cipher suite is proprietary; this package substitutes
// modern stdlib primitives with the same security properties. The *cost*
// of the card's crypto is modeled separately by internal/nic.
package vpg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"barbican/internal/packet"
)

// Key is a 256-bit group key.
type Key [32]byte

// DeriveKey derives a group key from a passphrase. Real deployments
// provision keys from the policy server; experiments and tests derive
// them from names.
func DeriveKey(passphrase string) Key {
	return sha256.Sum256([]byte("barbican-vpg-key:" + passphrase))
}

// Envelope framing constants.
const (
	envVersion  = 1
	tagLen      = 16 // GCM's default tag size
	nonceLen    = 12 // sender(4) + seq(8), GCM's standard nonce size
	maxNameLen  = 64
	fixedHdrLen = 11 // version(1) + origProto(1) + nameLen(1) + seq(8)
)

// Overhead returns the number of bytes sealing adds to a transport
// segment for a group with the given name length.
func Overhead(nameLen int) int { return fixedHdrLen + nameLen + tagLen }

// Errors reported by Open.
var (
	ErrNotMember   = errors.New("vpg: sender is not a group member")
	ErrBadEnvelope = errors.New("vpg: malformed envelope")
	ErrWrongGroup  = errors.New("vpg: envelope for a different group")
	ErrAuth        = errors.New("vpg: authentication failed")
)

// Group is a named virtual private group with a shared key and a member
// set.
//
// A group's Seal and Open reuse one AEAD and the group's nonce and
// additional-data buffers, so they serve one goroutine at a time; each
// simulation owns its groups (see DESIGN.md §7).
type Group struct {
	name    string
	aead    cipher.AEAD                        // AES-256-GCM under the group key
	nonce   [nonceLen]byte                     // nonceFor's output, so it stays off the heap
	ad      [8 + fixedHdrLen + maxNameLen]byte // additionalData's output, likewise
	members map[packet.IP]struct{}
}

// NewGroup creates a group of the given member addresses; membership
// is fixed from then on.
func NewGroup(name string, key Key, members ...packet.IP) (*Group, error) {
	if name == "" || len(name) > maxNameLen {
		return nil, fmt.Errorf("vpg: invalid group name %q", name)
	}
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// AES-256 with a fixed 32-byte key cannot fail; treat as corruption.
		panic("vpg: aes.NewCipher: " + err.Error())
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic("vpg: cipher.NewGCM: " + err.Error())
	}
	g := &Group{
		name:    name,
		aead:    aead,
		members: make(map[packet.IP]struct{}, len(members)),
	}
	for _, m := range members {
		g.members[m] = struct{}{}
	}
	return g, nil
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// IsMember reports whether ip belongs to the group.
func (g *Group) IsMember(ip packet.IP) bool {
	_, ok := g.members[ip]
	return ok
}

// Seal encrypts and authenticates a transport segment from sender to
// recipient, appends the envelope to dst and returns the extended slice,
// as cipher.AEAD's Seal does. It allocates a new buffer only when dst
// lacks the capacity; the remaining capacity of dst must not overlap
// transport. origProto records the encapsulated transport protocol so
// the receiver can restore the original datagram. seq is the nonce's
// counter: it must be strictly increasing per sender and never reused
// under the group's key (use a Sealer).
func (g *Group) Seal(dst []byte, sender, recipient packet.IP, origProto packet.Protocol, transport []byte, seq uint64) ([]byte, error) {
	if !g.IsMember(sender) {
		return nil, ErrNotMember
	}
	if !g.IsMember(recipient) {
		return nil, fmt.Errorf("%w (destination %v)", ErrNotMember, recipient)
	}
	n := len(g.name)
	hdrLen := fixedHdrLen + n
	ret := slices.Grow(dst, hdrLen+len(transport)+tagLen)[:len(dst)+hdrLen]
	hdr := ret[len(dst):]
	hdr[0] = envVersion
	hdr[1] = byte(origProto)
	hdr[2] = byte(n)
	copy(hdr[3:], g.name)
	binary.BigEndian.PutUint64(hdr[3+n:], seq)
	return g.aead.Seal(ret, g.nonceFor(sender, seq), transport, g.additionalData(sender, recipient, hdr)), nil
}

// Open verifies and decrypts an envelope received from sender addressed
// to recipient, appends the transport segment to dst and returns the
// original protocol, the extended slice, and the sequence number, as
// cipher.AEAD's Open does. It allocates a new buffer only when dst lacks
// the capacity; the remaining capacity of dst must not overlap env, and
// a failed Open may overwrite it, as cipher.AEAD's Open may. Every
// authentication failure is ErrAuth. Replay checking is the caller's
// responsibility (see ReplayWindow); Open itself is stateless.
func (g *Group) Open(dst []byte, sender, recipient packet.IP, env []byte) (packet.Protocol, []byte, uint64, error) {
	if len(env) < fixedHdrLen+tagLen {
		return 0, nil, 0, ErrBadEnvelope
	}
	if env[0] != envVersion {
		return 0, nil, 0, fmt.Errorf("%w: version %d", ErrBadEnvelope, env[0])
	}
	n := int(env[2])
	hdrLen := fixedHdrLen + n
	if len(env) < hdrLen+tagLen {
		return 0, nil, 0, ErrBadEnvelope
	}
	if string(env[3:3+n]) != g.name {
		return 0, nil, 0, ErrWrongGroup
	}
	if !g.IsMember(sender) {
		return 0, nil, 0, ErrNotMember
	}
	seq := binary.BigEndian.Uint64(env[3+n:])
	ret, err := g.aead.Open(dst, g.nonceFor(sender, seq), env[hdrLen:], g.additionalData(sender, recipient, env[:hdrLen]))
	if err != nil {
		return 0, nil, 0, ErrAuth
	}
	return packet.Protocol(env[1]), ret, seq, nil
}

// nonceFor writes the GCM nonce sender ‖ seq into the group's nonce
// buffer and returns it; it is valid until the next call.
//
//barbican:noalloc
func (g *Group) nonceFor(sender packet.IP, seq uint64) []byte {
	copy(g.nonce[0:4], sender[:])
	binary.BigEndian.PutUint64(g.nonce[4:], seq)
	return g.nonce[:]
}

// additionalData writes sender ‖ destination ‖ envelope header into the
// group's ad buffer and returns it, so the tag binds the addresses and
// every header byte; it is valid until the next call.
//
//barbican:noalloc
func (g *Group) additionalData(sender, dst packet.IP, hdr []byte) []byte {
	copy(g.ad[0:4], sender[:])
	copy(g.ad[4:8], dst[:])
	return g.ad[:8+copy(g.ad[8:], hdr)]
}

// PeekGroupName extracts the group name from an envelope without
// verifying it, so a receiver holding several groups can route the
// envelope to the right one. The name aliases env; look it up as
// m[string(name)], which does not allocate.
func PeekGroupName(env []byte) ([]byte, error) {
	if len(env) < fixedHdrLen || env[0] != envVersion {
		return nil, ErrBadEnvelope
	}
	n := int(env[2])
	if len(env) < fixedHdrLen+n {
		return nil, ErrBadEnvelope
	}
	return env[3 : 3+n], nil
}

// Sealer seals traffic from one member with automatically increasing
// sequence numbers, so its nonces never repeat. Its sequence starts at
// 1 and must not restart under the same group key: a new Sealer for a
// sender that has already sealed under that key would repeat nonces.
type Sealer struct {
	group  *Group
	sender packet.IP
	seq    uint64
}

// NewSealer creates a sealer for the given member address.
func NewSealer(g *Group, sender packet.IP) (*Sealer, error) {
	if !g.IsMember(sender) {
		return nil, ErrNotMember
	}
	return &Sealer{group: g, sender: sender}, nil
}

// Seal seals one transport segment toward recipient, appending the
// envelope to dst as Group.Seal does.
func (s *Sealer) Seal(dst []byte, recipient packet.IP, origProto packet.Protocol, transport []byte) ([]byte, error) {
	s.seq++
	return s.group.Seal(dst, s.sender, recipient, origProto, transport, s.seq)
}

// ReplayWindow is a 64-entry sliding anti-replay window, as in IPsec.
// The zero value is ready to use and accepts any first sequence number.
type ReplayWindow struct {
	highest uint64
	bitmap  uint64
	primed  bool
}

// Check validates seq and marks it seen. It returns false for replays and
// for sequence numbers older than the window.
func (w *ReplayWindow) Check(seq uint64) bool {
	if !w.primed {
		w.primed = true
		w.highest = seq
		w.bitmap = 1
		return true
	}
	switch {
	case seq > w.highest:
		shift := seq - w.highest
		if shift >= 64 {
			w.bitmap = 0
		} else {
			w.bitmap <<= shift
		}
		w.bitmap |= 1
		w.highest = seq
		return true
	case w.highest-seq >= 64:
		return false // too old
	default:
		bit := uint64(1) << (w.highest - seq)
		if w.bitmap&bit != 0 {
			return false // replay
		}
		w.bitmap |= bit
		return true
	}
}
