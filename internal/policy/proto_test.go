package policy

import (
	"errors"
	"testing"
)

func TestPushMessageRoundTrip(t *testing.T) {
	psk := DeriveKey("k")
	m := &pushMessage{Version: 7, Name: "target", Text: "default deny\n"}
	b := m.encode(psk)

	got, n, err := decodePush(psk, b)
	if err != nil {
		t.Fatalf("decodePush: %v", err)
	}
	if got == nil {
		t.Fatal("decodePush wanted more bytes")
	}
	if n != len(b) {
		t.Errorf("consumed %d of %d bytes", n, len(b))
	}
	if got.Version != 7 || got.Name != "target" || got.Text != "default deny\n" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestDecodePushPartial(t *testing.T) {
	psk := DeriveKey("k")
	b := (&pushMessage{Version: 1, Name: "t", Text: "default deny\n"}).encode(psk)
	for i := 0; i < len(b); i++ {
		got, _, err := decodePush(psk, b[:i])
		if err != nil {
			t.Fatalf("partial decode at %d: %v", i, err)
		}
		if got != nil {
			t.Fatalf("partial decode at %d returned a message", i)
		}
	}
}

func TestDecodePushWrongKey(t *testing.T) {
	b := (&pushMessage{Version: 1, Name: "t", Text: "x"}).encode(DeriveKey("a"))
	if _, _, err := decodePush(DeriveKey("b"), b); !errors.Is(err, ErrBadMAC) {
		t.Errorf("err = %v, want ErrBadMAC", err)
	}
}

func TestDecodePushBadMagic(t *testing.T) {
	b := (&pushMessage{Version: 1, Name: "t", Text: "x"}).encode(DeriveKey("a"))
	b[0] = 'X'
	if _, _, err := decodePush(DeriveKey("a"), b); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseResponse(t *testing.T) {
	if _, _, done := parseResponse([]byte("OK 3")); done {
		t.Error("incomplete line reported done")
	}
	v, msg, done := parseResponse([]byte("OK 3\n"))
	if !done || v != 3 || msg != "" {
		t.Errorf("OK parse = %d %q %v", v, msg, done)
	}
	_, msg, done = parseResponse([]byte("ERR boom\n"))
	if !done || msg != "boom" {
		t.Errorf("ERR parse = %q %v", msg, done)
	}
	_, msg, done = parseResponse([]byte("??\n"))
	if !done || msg == "" {
		t.Error("garbage response not flagged")
	}
}
