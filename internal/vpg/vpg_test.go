package vpg

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"barbican/internal/packet"
)

var (
	alice = packet.MustIP("10.0.0.1")
	bob   = packet.MustIP("10.0.0.2")
	eve   = packet.MustIP("10.0.0.66")
)

func newTestGroup(t *testing.T) *Group {
	t.Helper()
	g, err := NewGroup("psq", DeriveKey("test"), alice, bob)
	if err != nil {
		t.Fatalf("NewGroup: %v", err)
	}
	return g
}

func TestSealOpenRoundTrip(t *testing.T) {
	g := newTestGroup(t)
	plaintext := []byte("GET /index.html HTTP/1.0\r\n\r\n")
	env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, plaintext, 1)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if bytes.Contains(env, plaintext[:16]) {
		t.Error("envelope contains plaintext (no confidentiality)")
	}
	proto, got, seq, err := g.Open(nil, alice, bob, env)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if proto != packet.ProtoTCP || seq != 1 || !bytes.Equal(got, plaintext) {
		t.Errorf("round trip mismatch: proto=%v seq=%d payload=%q", proto, seq, got)
	}
}

// Seal and Open append to dst, as cipher.AEAD does, whether or not dst
// has the capacity.
func TestSealOpenAppendToDst(t *testing.T) {
	g := newTestGroup(t)
	plaintext := []byte("segment")
	prefix := []byte("hdr")
	for _, room := range []int{0, 64} {
		dst := append(make([]byte, 0, len(prefix)+room), prefix...)
		sealed, err := g.Seal(dst, alice, bob, packet.ProtoTCP, plaintext, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(sealed, prefix) || len(sealed) != len(prefix)+len(plaintext)+Overhead(len(g.Name())) {
			t.Fatalf("room %d: Seal returned %x", room, sealed)
		}
		dst = append(make([]byte, 0, len(prefix)+room), prefix...)
		_, opened, _, err := g.Open(dst, alice, bob, sealed[len(prefix):])
		if err != nil {
			t.Fatal(err)
		}
		if want := append(append([]byte(nil), prefix...), plaintext...); !bytes.Equal(opened, want) {
			t.Errorf("room %d: Open returned %q, want %q", room, opened, want)
		}
	}
}

func TestSealRejectsNonMembers(t *testing.T) {
	g := newTestGroup(t)
	if _, err := g.Seal(nil, eve, bob, packet.ProtoTCP, []byte("x"), 1); !errors.Is(err, ErrNotMember) {
		t.Errorf("Seal from non-member: %v, want ErrNotMember", err)
	}
	if _, err := g.Seal(nil, alice, eve, packet.ProtoTCP, []byte("x"), 1); !errors.Is(err, ErrNotMember) {
		t.Errorf("Seal to non-member: %v, want ErrNotMember", err)
	}
}

func TestOpenRejectsNonMemberSender(t *testing.T) {
	g := newTestGroup(t)
	env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, []byte("x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Even a byte-identical envelope claimed to be from a non-member fails.
	if _, _, _, err := g.Open(nil, eve, bob, env); !errors.Is(err, ErrNotMember) {
		t.Errorf("Open from non-member: %v, want ErrNotMember", err)
	}
}

// Flipping any single byte of an envelope (header, ciphertext or tag)
// must make Open fail: the tag covers the ciphertext and, through the
// additional data, every header byte.
func TestOpenRejectsTamper(t *testing.T) {
	g := newTestGroup(t)
	env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, []byte("sensitive"), 7)
	if err != nil {
		t.Fatal(err)
	}
	for idx := range env {
		mutated := append([]byte(nil), env...)
		mutated[idx] ^= 0x01
		if _, _, _, err := g.Open(nil, alice, bob, mutated); err == nil {
			t.Errorf("tampered byte %d of %d accepted", idx, len(env))
		}
	}
}

func TestOpenBindsSenderAndDestination(t *testing.T) {
	g := newTestGroup(t)
	env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, []byte("x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A member replaying the envelope as its own traffic must fail auth.
	if _, _, _, err := g.Open(nil, bob, bob, env); !errors.Is(err, ErrAuth) {
		t.Errorf("sender spoof: %v, want ErrAuth", err)
	}
	// Redirecting to another destination must fail auth.
	if _, _, _, err := g.Open(nil, alice, alice, env); !errors.Is(err, ErrAuth) {
		t.Errorf("destination spoof: %v, want ErrAuth", err)
	}
}

// Each envelope's nonce is sender ‖ seq, so sealing one segment under
// two sequence numbers, or from two senders, must give two different
// ciphertexts; equal ones would mean a repeated GCM nonce.
func TestSealNoncesAreDistinct(t *testing.T) {
	g := newTestGroup(t)
	transport := make([]byte, 64)
	seen := map[string]string{}
	for _, c := range []struct {
		sender, recipient packet.IP
		seq               uint64
	}{{alice, bob, 1}, {alice, bob, 2}, {bob, alice, 1}, {bob, alice, 2}} {
		env, err := g.Seal(nil, c.sender, c.recipient, packet.ProtoUDP, transport, c.seq)
		if err != nil {
			t.Fatal(err)
		}
		ct := string(env[fixedHdrLen+len(g.Name()) : len(env)-tagLen])
		label := fmt.Sprintf("%v seq %d", c.sender, c.seq)
		if prev, ok := seen[ct]; ok {
			t.Errorf("%s and %s sealed the same ciphertext", prev, label)
		}
		seen[ct] = label
	}
}

func TestOpenRejectsWrongGroup(t *testing.T) {
	g := newTestGroup(t)
	other, err := NewGroup("other", DeriveKey("test2"), alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, []byte("x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := other.Open(nil, alice, bob, env); !errors.Is(err, ErrWrongGroup) {
		t.Errorf("wrong group: %v, want ErrWrongGroup", err)
	}
}

func TestOpenRejectsSameNameDifferentKey(t *testing.T) {
	g := newTestGroup(t)
	imposter, err := NewGroup("psq", DeriveKey("wrong-key"), alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	env, err := imposter.Seal(nil, alice, bob, packet.ProtoTCP, []byte("x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := g.Open(nil, alice, bob, env); !errors.Is(err, ErrAuth) {
		t.Errorf("forged key: %v, want ErrAuth", err)
	}
}

func TestOpenRejectsTruncatedEnvelopes(t *testing.T) {
	g := newTestGroup(t)
	env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, []byte("hello"), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, fixedHdrLen - 1, fixedHdrLen + 2} {
		if _, _, _, err := g.Open(nil, alice, bob, env[:n]); err == nil {
			t.Errorf("truncated envelope of %d bytes accepted", n)
		}
	}
}

func TestPeekGroupName(t *testing.T) {
	g := newTestGroup(t)
	env, err := g.Seal(nil, alice, bob, packet.ProtoUDP, []byte("x"), 1)
	if err != nil {
		t.Fatal(err)
	}
	name, err := PeekGroupName(env)
	if err != nil || string(name) != "psq" {
		t.Errorf("PeekGroupName = %q, %v", name, err)
	}
	if _, err := PeekGroupName([]byte{0x02}); err == nil {
		t.Error("PeekGroupName accepted garbage")
	}
}

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup("", DeriveKey("k")); err == nil {
		t.Error("empty group name accepted")
	}
	if _, err := NewGroup(string(make([]byte, 65)), DeriveKey("k")); err == nil {
		t.Error("oversized group name accepted")
	}
}

func TestMembership(t *testing.T) {
	g := newTestGroup(t)
	if g.IsMember(eve) {
		t.Error("eve is a member")
	}
	if !g.IsMember(alice) || !g.IsMember(bob) {
		t.Error("a NewGroup member is not a member")
	}
}

func TestSealerIncrementsSeq(t *testing.T) {
	g := newTestGroup(t)
	s, err := NewSealer(g, alice)
	if err != nil {
		t.Fatal(err)
	}
	var w ReplayWindow
	for i := 0; i < 5; i++ {
		env, err := s.Seal(nil, bob, packet.ProtoTCP, []byte("m"))
		if err != nil {
			t.Fatal(err)
		}
		_, _, seq, err := g.Open(nil, alice, bob, env)
		if err != nil {
			t.Fatal(err)
		}
		if !w.Check(seq) {
			t.Errorf("fresh seq %d rejected", seq)
		}
	}
	if _, err := NewSealer(g, eve); !errors.Is(err, ErrNotMember) {
		t.Errorf("NewSealer non-member: %v", err)
	}
}

func TestReplayWindow(t *testing.T) {
	var w ReplayWindow
	if !w.Check(100) {
		t.Fatal("first seq rejected")
	}
	if w.Check(100) {
		t.Error("replay accepted")
	}
	if !w.Check(99) || w.Check(99) {
		t.Error("in-window out-of-order handling broken")
	}
	if !w.Check(163) {
		t.Error("forward jump rejected")
	}
	if w.Check(99) {
		t.Error("seq older than window accepted")
	}
	if !w.Check(150) {
		t.Error("in-window unseen seq rejected")
	}
	if w.Check(150) {
		t.Error("replay of 150 accepted")
	}
}

func TestReplayWindowLargeJump(t *testing.T) {
	var w ReplayWindow
	if !w.Check(1) || !w.Check(1<<40) {
		t.Fatal("large forward jump rejected")
	}
	if w.Check(1 << 40) {
		t.Error("replay after large jump accepted")
	}
	if w.Check(1) {
		t.Error("ancient seq accepted after large jump")
	}
}

// Property: seal∘open is the identity for arbitrary payloads and sequence
// numbers, and flipping any single bit of the envelope breaks it.
func TestSealOpenProperty(t *testing.T) {
	g, err := NewGroup("prop", DeriveKey("prop"), alice, bob)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	f := func(payload []byte, seq uint64) bool {
		env, err := g.Seal(nil, alice, bob, packet.ProtoUDP, payload, seq)
		if err != nil {
			return false
		}
		proto, got, gotSeq, err := g.Open(nil, alice, bob, env)
		if err != nil || proto != packet.ProtoUDP || gotSeq != seq || !bytes.Equal(got, payload) {
			return false
		}
		if len(env) > 0 {
			i := rng.Intn(len(env))
			env[i] ^= 1 << uint(rng.Intn(8))
			if _, _, _, err := g.Open(nil, alice, bob, env); err == nil {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestOverhead(t *testing.T) {
	g := newTestGroup(t)
	payload := make([]byte, 100)
	env, err := g.Seal(nil, alice, bob, packet.ProtoTCP, payload, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(env)-len(payload), Overhead(len("psq")); got != want {
		t.Errorf("observed overhead %d, Overhead() says %d", got, want)
	}
}

// Seal and Open into a buffer with room allocate nothing: the envelope
// and the plaintext stay in caller-owned memory, and the nonce and the
// additional data in group-owned buffers.
func TestSealOpenAllocs(t *testing.T) {
	g := newTestGroup(t)
	payload := make([]byte, 1460)
	env := make([]byte, 0, len(payload)+Overhead(len(g.Name())))
	pt := make([]byte, 0, len(payload))
	var err error
	seal := testing.AllocsPerRun(100, func() {
		env, err = g.Seal(env[:0], alice, bob, packet.ProtoTCP, payload, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	open := testing.AllocsPerRun(100, func() {
		_, pt, _, err = g.Open(pt[:0], alice, bob, env)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seal != 0 || open != 0 {
		t.Errorf("allocs per Seal = %v, per Open = %v; want 0 each", seal, open)
	}
	if len(pt) != len(payload) {
		t.Errorf("opened %d bytes, want %d", len(pt), len(payload))
	}
}
