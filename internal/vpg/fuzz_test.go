package vpg

import (
	"bytes"
	"testing"

	"barbican/internal/packet"
)

// FuzzOpen feeds arbitrary bytes to the envelope decoders a receiving
// card runs on wire data: PeekGroupName, then Group.Open. Neither may
// panic, and an envelope Open accepts must round-trip: sealing what
// Open returned, with the same sequence number, rebuilds exactly the
// envelope. The seed corpus is two valid envelopes and every strict
// prefix of them, so plain `go test` replays all of them.
//
//	go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s ./internal/vpg
func FuzzOpen(f *testing.F) {
	g, err := NewGroup("psq", DeriveKey("test"), alice, bob)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		proto     packet.Protocol
		transport string
		seq       uint64
	}{{packet.ProtoTCP, "GET /index.html HTTP/1.0\r\n\r\n", 7}, {packet.ProtoUDP, "", 1}} {
		env, err := g.Seal(nil, alice, bob, seed.proto, []byte(seed.transport), seed.seq)
		if err != nil {
			f.Fatal(err)
		}
		for cut := 0; cut <= len(env); cut++ {
			f.Add(env[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, env []byte) {
		name, peekErr := PeekGroupName(env)
		if peekErr == nil && fixedHdrLen+len(name) > len(env) {
			t.Fatalf("PeekGroupName returned a %d-byte name from a %d-byte envelope", len(name), len(env))
		}
		proto, transport, seq, err := g.Open(nil, alice, bob, env)
		if err != nil {
			return
		}
		if peekErr != nil || string(name) != g.Name() {
			t.Fatalf("Open accepted an envelope PeekGroupName reads as %q, %v", name, peekErr)
		}
		re, err := g.Seal(nil, alice, bob, proto, transport, seq)
		if err != nil {
			t.Fatalf("accepted envelope does not re-seal: %v", err)
		}
		if !bytes.Equal(re, env) {
			t.Fatalf("round trip changed the envelope:\n got %x\nwant %x", re, env)
		}
	})
}
