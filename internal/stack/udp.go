package stack

import (
	"fmt"

	"barbican/internal/packet"
)

// UDPSocket is a bound UDP port on a host.
type UDPSocket struct {
	host *Host
	port uint16
	// OnRecv is invoked for each datagram delivered to the socket.
	// payload is valid only until OnRecv returns (it may alias the
	// card's receive buffer); copy what you keep.
	OnRecv func(src packet.IP, srcPort uint16, payload []byte)

	rxDatagrams uint64
	rxBytes     uint64

	// tx is the socket's transport marshal scratch, reused across sends.
	tx []byte
}

// BindUDP binds a UDP port. Port 0 picks an ephemeral port.
func (h *Host) BindUDP(port uint16) (*UDPSocket, error) {
	if port == 0 {
		p, err := h.allocEphemeral(func(p uint16) bool {
			_, used := h.udpSocks[p]
			return used
		})
		if err != nil {
			return nil, err
		}
		port = p
	}
	if _, used := h.udpSocks[port]; used {
		return nil, fmt.Errorf("stack: %s: UDP port %d already bound", h.name, port)
	}
	s := &UDPSocket{host: h, port: port}
	h.udpSocks[port] = s
	return s, nil
}

// Port returns the bound port.
func (s *UDPSocket) Port() uint16 { return s.port }

// Received returns the datagram and byte counts delivered to the socket.
func (s *UDPSocket) Received() (datagrams, bytes uint64) {
	return s.rxDatagrams, s.rxBytes
}

// SendTo transmits one datagram. It reports whether the datagram made it
// onto the wire.
//
//barbican:noalloc
func (s *UDPSocket) SendTo(dst packet.IP, dstPort uint16, payload []byte) bool {
	u := packet.UDPDatagram{SrcPort: s.port, DstPort: dstPort, Payload: payload}
	s.tx = u.MarshalTo(s.host.ip, dst, s.tx[:0])
	return s.host.send(dst, packet.ProtoUDP, s.tx)
}

// Close unbinds the socket.
func (s *UDPSocket) Close() {
	if s.host.udpSocks[s.port] == s {
		delete(s.host.udpSocks, s.port)
	}
}

func (s *UDPSocket) deliver(src packet.IP, srcPort uint16, payload []byte) {
	s.rxDatagrams++
	s.rxBytes += uint64(len(payload))
	if s.OnRecv != nil {
		s.OnRecv(src, srcPort, payload)
	}
}
