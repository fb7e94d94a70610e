package policy

import (
	"bytes"
	"testing"
)

// sweepVectors returns every corruption the truncation and bit-flip
// sweeps apply to a valid wire image: each strict prefix, then each
// single-byte XOR with 0x01, 0x80 and 0xff.
func sweepVectors(wire []byte) [][]byte {
	var out [][]byte
	for cut := 0; cut < len(wire); cut++ {
		out = append(out, wire[:cut])
	}
	for i := range wire {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), wire...)
			mut[i] ^= flip
			out = append(out, mut)
		}
	}
	return out
}

// FuzzDecodePush feeds arbitrary bytes to the agent's push decoder. It
// must never panic, and a message it accepts must re-encode to exactly
// the bytes it consumed. The seed corpus is the valid wire image plus
// every sweep vector, so plain `go test` replays all of them.
//
//	go test -run '^$' -fuzz '^FuzzDecodePush$' -fuzztime 10s ./internal/policy
func FuzzDecodePush(f *testing.F) {
	psk := DeriveKey("corruption-test")
	wire := validWire(f, psk)
	f.Add(wire)
	for _, v := range sweepVectors(wire) {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		msg, n, err := decodePush(psk, buf)
		if msg == nil {
			return
		}
		if err != nil {
			t.Fatalf("decoded a message together with error %v", err)
		}
		if re := msg.encode(psk); !bytes.Equal(re, buf[:n]) {
			t.Fatalf("round trip changed the wire image:\n got %x\nwant %x", re, buf[:n])
		}
	})
}
