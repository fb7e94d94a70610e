package policy

import (
	"testing"
)

// validWire builds a representative signed push wire image: a device
// name and a policy with rules in both directions (every field of the
// body format is present; the group count is its one legal value, 0).
func validWire(t testing.TB, psk []byte) []byte {
	t.Helper()
	msg := &pushMessage{
		Version: 7,
		Name:    "target",
		Text: "allow in proto tcp from any to 10.0.0.2/32 port 80\n" +
			"allow out proto udp from 10.0.0.2/32 to any port 53\n" +
			"default deny\n",
	}
	return msg.encode(psk)
}

// TestDecodePushTruncationSweep: every strict prefix of a valid wire
// image must decode to "need more bytes" or an error — never a
// message, never a panic. Truncation is what a mid-push partition
// leaves in the agent's buffer.
func TestDecodePushTruncationSweep(t *testing.T) {
	psk := DeriveKey("corruption-test")
	wire := validWire(t, psk)
	if msg, n, err := decodePush(psk, wire); msg == nil || err != nil || n != len(wire) {
		t.Fatalf("baseline decode failed: msg=%v n=%d err=%v", msg, n, err)
	}
	for cut := 0; cut < len(wire); cut++ {
		msg, _, err := decodePush(psk, wire[:cut])
		if msg != nil {
			t.Fatalf("prefix of %d/%d bytes decoded to a message", cut, len(wire))
		}
		// Prefixes shorter than header+payload legitimately report
		// "need more"; what matters is no panic and no message.
		_ = err
	}
}

// TestDecodePushBitFlipSweep: single-byte corruptions of a valid wire
// image must never panic and never yield an accepted message. Flips
// outside the length field must return an error outright (magic check,
// MAC, or framing); length-field flips may instead look like an
// incomplete longer message, which the agent's read deadline reaps.
func TestDecodePushBitFlipSweep(t *testing.T) {
	psk := DeriveKey("corruption-test")
	wire := validWire(t, psk)
	for i := 0; i < len(wire); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), wire...)
			mut[i] ^= flip
			msg, _, err := decodePush(psk, mut)
			if msg != nil {
				t.Fatalf("flip 0x%02x at byte %d decoded to a message", flip, i)
			}
			lengthField := i >= 4 && i < headerLen
			if !lengthField && err == nil {
				t.Fatalf("flip 0x%02x at byte %d returned no error", flip, i)
			}
			if lengthField && err == nil {
				// Shrunk-length flips must still fail; only grown
				// lengths may legitimately wait for more bytes.
				if n := int(uint32(mut[4])<<24 | uint32(mut[5])<<16 | uint32(mut[6])<<8 | uint32(mut[7])); n <= len(wire)-headerLen {
					t.Fatalf("flip 0x%02x at byte %d shrank the length yet decoded cleanly", flip, i)
				}
			}
		}
	}
}

// TestParseBodyPrefixSweep: parseBody on every strict prefix of a
// valid body must return an error (the MAC normally shields it, but
// the parser itself must hold the line — defense in depth).
func TestParseBodyPrefixSweep(t *testing.T) {
	psk := DeriveKey("corruption-test")
	wire := validWire(t, psk)
	body := wire[headerLen : len(wire)-macLen]
	if _, err := parseBody(body); err != nil {
		t.Fatalf("baseline parseBody failed: %v", err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := parseBody(body[:cut]); err == nil {
			t.Fatalf("parseBody accepted a %d/%d-byte prefix", cut, len(body))
		}
	}
}

// TestParseBodyByteFlipNeverPanics: parseBody must survive arbitrary
// single-byte corruption of the (normally MAC-protected) body.
func TestParseBodyByteFlipNeverPanics(t *testing.T) {
	psk := DeriveKey("corruption-test")
	wire := validWire(t, psk)
	body := wire[headerLen : len(wire)-macLen]
	for i := 0; i < len(body); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), body...)
			mut[i] ^= flip
			// Any outcome but a panic is acceptable: flipped bytes can
			// still form a structurally valid body.
			_, _ = parseBody(mut)
		}
	}
}

// TestParseResponseGarbage: the server-side response parser must
// handle corrupted reply lines without panicking.
func TestParseResponseGarbage(t *testing.T) {
	cases := []string{"", "OK\n", "OK x\n", "OK 99999999999999999999\n", "ERR\n", "garbage\n", "OK 7"}
	for _, in := range cases {
		version, errMsg, done := parseResponse([]byte(in))
		if in == "OK 7" && done {
			t.Errorf("parseResponse(%q) completed without a newline", in)
		}
		_ = version
		_ = errMsg
	}
}
