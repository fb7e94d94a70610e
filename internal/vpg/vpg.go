// Package vpg implements virtual private groups, the ADF's encrypted
// host-to-host channels (Carney et al., "Virtual Private Groups").
//
// A group is a set of member hosts sharing a group key. Traffic between
// members is sealed into envelopes providing confidentiality (AES-256-CTR),
// integrity, and sender authentication (HMAC-SHA-256 bound to the sender
// and destination addresses, plus group membership checks). Receivers keep
// a per-sender anti-replay window.
//
// The real ADF's cipher suite is proprietary; this package substitutes
// modern stdlib primitives with the same security properties. The *cost*
// of the card's crypto is modeled separately by internal/nic.
package vpg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
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
	tagLen      = 16
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
// A group's Seal and Open reuse one cipher and one MAC state, so they
// serve one goroutine at a time; each simulation owns its groups (see
// DESIGN.md §7).
type Group struct {
	name    string
	block   cipher.Block        // AES-256 under the encryption subkey
	mac     hash.Hash           // HMAC-SHA-256 under the MAC subkey, Reset per tag
	iv      [aes.BlockSize]byte // stream's IV, so it stays off the heap
	addrs   [8]byte             // tag's sender and destination, likewise
	sum     [sha256.Size]byte   // tag's output, so a tag allocates nothing
	members map[packet.IP]struct{}
}

// NewGroup creates a group of the given member addresses; membership
// is fixed from then on.
func NewGroup(name string, key Key, members ...packet.IP) (*Group, error) {
	if name == "" || len(name) > maxNameLen {
		return nil, fmt.Errorf("vpg: invalid group name %q", name)
	}
	encKey, macKey := deriveSubkey(key, "enc"), deriveSubkey(key, "mac")
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		// AES-256 with a fixed 32-byte key cannot fail; treat as corruption.
		panic("vpg: aes.NewCipher: " + err.Error())
	}
	g := &Group{
		name:    name,
		block:   block,
		mac:     hmac.New(sha256.New, macKey[:]),
		members: make(map[packet.IP]struct{}, len(members)),
	}
	for _, m := range members {
		g.members[m] = struct{}{}
	}
	return g, nil
}

func deriveSubkey(key Key, label string) [32]byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte(label))
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
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
// the receiver can restore the original datagram. seq must be strictly
// increasing per sender (use a Sealer).
func (g *Group) Seal(dst []byte, sender, recipient packet.IP, origProto packet.Protocol, transport []byte, seq uint64) ([]byte, error) {
	if !g.IsMember(sender) {
		return nil, ErrNotMember
	}
	if !g.IsMember(recipient) {
		return nil, fmt.Errorf("%w (destination %v)", ErrNotMember, recipient)
	}
	n := len(g.name)
	ret, env := grow(dst, fixedHdrLen+n+len(transport)+tagLen)
	env[0] = envVersion
	env[1] = byte(origProto)
	env[2] = byte(n)
	copy(env[3:], g.name)
	binary.BigEndian.PutUint64(env[3+n:], seq)
	ct := env[fixedHdrLen+n : fixedHdrLen+n+len(transport)]
	g.stream(sender, seq).XORKeyStream(ct, transport)
	tag := g.tag(sender, recipient, env[:len(env)-tagLen])
	copy(env[len(env)-tagLen:], tag)
	return ret, nil
}

// Open verifies and decrypts an envelope received from sender addressed
// to recipient, appends the transport segment to dst and returns the
// original protocol, the extended slice, and the sequence number, as
// cipher.AEAD's Open does. It allocates a new buffer only when dst lacks
// the capacity; the remaining capacity of dst must not overlap env.
// Replay checking is the caller's responsibility (see ReplayWindow);
// Open itself is stateless.
func (g *Group) Open(dst []byte, sender, recipient packet.IP, env []byte) (packet.Protocol, []byte, uint64, error) {
	if len(env) < fixedHdrLen+tagLen {
		return 0, nil, 0, ErrBadEnvelope
	}
	if env[0] != envVersion {
		return 0, nil, 0, fmt.Errorf("%w: version %d", ErrBadEnvelope, env[0])
	}
	n := int(env[2])
	if len(env) < fixedHdrLen+n+tagLen {
		return 0, nil, 0, ErrBadEnvelope
	}
	if string(env[3:3+n]) != g.name {
		return 0, nil, 0, ErrWrongGroup
	}
	if !g.IsMember(sender) {
		return 0, nil, 0, ErrNotMember
	}
	body := env[:len(env)-tagLen]
	want := g.tag(sender, recipient, body)
	if !hmac.Equal(want, env[len(env)-tagLen:]) {
		return 0, nil, 0, ErrAuth
	}
	seq := binary.BigEndian.Uint64(env[3+n:])
	ct := env[fixedHdrLen+n : len(env)-tagLen]
	ret, pt := grow(dst, len(ct))
	g.stream(sender, seq).XORKeyStream(pt, ct)
	return packet.Protocol(env[1]), ret, seq, nil
}

// grow extends b by n bytes, reallocating only when b lacks the
// capacity, and returns the extended slice and its last n bytes.
func grow(b []byte, n int) (whole, tail []byte) {
	whole = slices.Grow(b, n)[:len(b)+n]
	return whole, whole[len(b):]
}

// stream builds the CTR keystream bound to (sender, seq). The IV goes
// through the group's iv buffer, which NewCTR copies, so only the
// keystream itself is allocated.
func (g *Group) stream(sender packet.IP, seq uint64) cipher.Stream {
	copy(g.iv[0:4], sender[:])
	binary.BigEndian.PutUint64(g.iv[4:12], seq)
	return cipher.NewCTR(g.block, g.iv[:])
}

// tag computes the truncated HMAC binding sender, destination, and body.
// The addresses go through the group's addrs buffer, so nothing escapes
// into the MAC's interface call. The result aliases the group's sum
// buffer and is valid until the next tag.
//
//barbican:noalloc
func (g *Group) tag(sender, dst packet.IP, body []byte) []byte {
	mac := g.mac
	mac.Reset()
	copy(g.addrs[0:4], sender[:])
	copy(g.addrs[4:8], dst[:])
	mac.Write(g.addrs[:])
	mac.Write(body)
	return mac.Sum(g.sum[:0])[:tagLen]
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
// sequence numbers.
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
