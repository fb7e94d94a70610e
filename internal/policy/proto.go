package policy

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// AgentPort is the TCP port firewall agents listen on for policy pushes.
const AgentPort = 4747

// Wire framing: "BPL2" | uint32 payloadLen | payload, where payload is
//
//	uint32 version | uint16 nameLen | name | uint32 textLen | text |
//	uint8 groupCount | 32-byte HMAC
//
// The HMAC (SHA-256, pre-shared key) covers everything before it. A push
// carries a rule-set only: VPGs are provisioned with the testbed
// (core.Testbed.SetupVPG), so the group count is always 0 and the
// decoder rejects any other value. The byte stays because every push's
// transfer time, and with it the audit times runs report, depends on
// the wire length.
const (
	protoMagic     = "BPL2"
	headerLen      = 8
	macLen         = 32
	maxPayloadSize = 1 << 20
)

// Errors surfaced by message decoding.
var (
	ErrBadMagic  = errors.New("policy: bad protocol magic")
	ErrTruncated = errors.New("policy: truncated message")
	ErrBadMAC    = errors.New("policy: message authentication failed")
	ErrTooLarge  = errors.New("policy: message too large")
	ErrGroups    = errors.New("policy: push carries group definitions")
)

// pushMessage is a policy push: one device's versioned rule-set.
type pushMessage struct {
	Version uint32
	Name    string
	Text    string
}

// body serializes everything the MAC covers.
func (m *pushMessage) body() []byte {
	var b []byte
	b = binary.BigEndian.AppendUint32(b, m.Version)
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Name)))
	b = append(b, m.Name...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(m.Text)))
	b = append(b, m.Text...)
	return append(b, 0) // group count
}

func sign(psk, body []byte) []byte {
	mac := hmac.New(sha256.New, psk)
	mac.Write(body)
	return mac.Sum(nil)
}

// encode frames and signs the message.
func (m *pushMessage) encode(psk []byte) []byte {
	body := m.body()
	payloadLen := len(body) + macLen
	b := make([]byte, 0, headerLen+payloadLen)
	b = append(b, protoMagic...)
	b = binary.BigEndian.AppendUint32(b, uint32(payloadLen))
	b = append(b, body...)
	return append(b, sign(psk, body)...)
}

// decodePush parses a framed buffer. It returns (nil, nil) when more
// bytes are needed, and the consumed byte count on success.
func decodePush(psk, buf []byte) (*pushMessage, int, error) {
	if len(buf) < headerLen {
		return nil, 0, nil
	}
	if string(buf[:4]) != protoMagic {
		return nil, 0, ErrBadMagic
	}
	payloadLen := int(binary.BigEndian.Uint32(buf[4:8]))
	if payloadLen > maxPayloadSize {
		return nil, 0, ErrTooLarge
	}
	if len(buf) < headerLen+payloadLen {
		return nil, 0, nil
	}
	p := buf[headerLen : headerLen+payloadLen]
	if payloadLen < macLen {
		return nil, 0, ErrTruncated
	}
	body, tag := p[:payloadLen-macLen], p[payloadLen-macLen:]
	if !hmac.Equal(tag, sign(psk, body)) {
		return nil, 0, ErrBadMAC
	}
	m, err := parseBody(body)
	if err != nil {
		return nil, 0, err
	}
	return m, headerLen + payloadLen, nil
}

func parseBody(p []byte) (*pushMessage, error) {
	if len(p) < 4+2 {
		return nil, ErrTruncated
	}
	m := &pushMessage{Version: binary.BigEndian.Uint32(p[0:4])}
	nameLen := int(binary.BigEndian.Uint16(p[4:6]))
	p = p[6:]
	if len(p) < nameLen+4 {
		return nil, ErrTruncated
	}
	m.Name = string(p[:nameLen])
	textLen := int(binary.BigEndian.Uint32(p[nameLen : nameLen+4]))
	p = p[nameLen+4:]
	if len(p) < textLen+1 {
		return nil, ErrTruncated
	}
	m.Text = string(p[:textLen])
	if p[textLen] != 0 {
		return nil, ErrGroups
	}
	if len(p) != textLen+1 {
		return nil, ErrTruncated
	}
	return m, nil
}

// Responses are a single text line: "OK <version>\n" or "ERR <msg>\n".

func encodeOK(version uint32) []byte {
	return []byte(fmt.Sprintf("OK %d\n", version))
}

func encodeErr(msg string) []byte {
	return []byte("ERR " + strings.ReplaceAll(msg, "\n", " ") + "\n")
}

// parseResponse interprets an agent's reply line. It returns (0, "", false)
// until a full line is buffered.
func parseResponse(buf []byte) (version uint32, errMsg string, done bool) {
	line, _, found := strings.Cut(string(buf), "\n")
	if !found {
		return 0, "", false
	}
	if rest, ok := strings.CutPrefix(line, "OK "); ok {
		v, err := strconv.ParseUint(rest, 10, 32)
		if err != nil {
			return 0, "malformed OK response", true
		}
		return uint32(v), "", true
	}
	if rest, ok := strings.CutPrefix(line, "ERR "); ok {
		return 0, rest, true
	}
	return 0, "malformed response: " + line, true
}
