package stack

import (
	"fmt"
	"slices"
	"time"

	"barbican/internal/packet"
	"barbican/internal/sim"
)

// ConnState is a TCP connection state (RFC 793 subset).
type ConnState int

// TCP states.
const (
	StateSynSent ConnState = iota + 1
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
	StateClosed
)

// String names the state as in RFC 793.
func (s ConnState) String() string {
	switch s {
	case StateSynSent:
		return "SYN-SENT"
	case StateSynRcvd:
		return "SYN-RECEIVED"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait1:
		return "FIN-WAIT-1"
	case StateFinWait2:
		return "FIN-WAIT-2"
	case StateCloseWait:
		return "CLOSE-WAIT"
	case StateClosing:
		return "CLOSING"
	case StateLastAck:
		return "LAST-ACK"
	case StateTimeWait:
		return "TIME-WAIT"
	case StateClosed:
		return "CLOSED"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

const (
	defaultWindow  = 65535
	initialRTO     = 200 * time.Millisecond
	maxRTO         = 2 * time.Second
	maxRetransmits = 8
)

// Conn is a TCP connection endpoint.
//
// All callbacks run on the simulation's event loop. Set them before data
// can arrive (immediately after DialTCP, or inside the listener's accept
// callback).
type Conn struct {
	host *Host
	key  connKey

	state ConnState
	mss   int
	wnd   uint32

	// Send side. buf holds unacknowledged and unsent bytes; bufSeq is
	// the sequence number of buf[0]. buf is a window onto bufArr, the
	// whole backing array (see queue).
	buf       []byte
	bufArr    []byte
	bufSeq    uint32
	iss       uint32
	sndUna    uint32
	sndNxt    uint32
	sndMax    uint32 // highest sequence ever sent (distinguishes retransmits)
	dupAcks   int
	peerWnd   uint32
	cwnd      int // congestion window, bytes (Reno)
	ssthresh  int
	finQueued bool
	finSent   bool
	finSeq    uint32

	rto         time.Duration
	rtoTimer    *sim.Event // one event, re-armed in place
	retransmits int
	timeWait    *sim.Event

	// NewReno fast-recovery state.
	fastRecovery bool
	recover      uint32

	// Receive side. ooo holds out-of-order segments awaiting the hole
	// to fill (keyed by sequence number), bounded by the window.
	rcvNxt   uint32
	ooo      map[uint32][]byte
	oooBytes int

	// tx is the connection's segment marshal scratch, reused across
	// sends.
	tx []byte

	// OnConnect fires when the handshake completes.
	OnConnect func()
	// OnData fires for each in-order data segment. The slice is valid
	// only until OnData returns (it may alias the card's receive
	// buffer); copy what you keep.
	OnData func([]byte)
	// OnPeerClose fires when the peer's FIN is received (EOF).
	OnPeerClose func()
	// OnClose fires once when the connection terminates gracefully.
	OnClose func()
	// OnReset fires when the connection is reset or aborted.
	OnReset func()
	// OnAcked fires when previously sent payload bytes are acknowledged;
	// senders use it to refill the buffer (see measure.Iperf).
	OnAcked func(n int)

	stats ConnStats
}

// ConnStats counts per-connection activity.
type ConnStats struct {
	BytesSent     uint64 // payload bytes handed to the network (excluding retransmits)
	BytesAcked    uint64
	BytesReceived uint64
	SegmentsSent  uint64
	Retransmits   uint64
	DupAcksSent   uint64
	RTOEvents     uint64
	FastRetrans   uint64
}

func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }

// DialTCP initiates a connection to dst:dstPort. The returned connection
// is in SYN-SENT; OnConnect fires when established. Data written before
// the handshake completes is queued.
func (h *Host) DialTCP(dst packet.IP, dstPort uint16) (*Conn, error) {
	local, err := h.allocEphemeral(func(p uint16) bool {
		if _, used := h.listeners[p]; used {
			return true
		}
		_, used := h.conns[connKey{remote: dst, remotePort: dstPort, localPort: p}]
		return used
	})
	if err != nil {
		return nil, err
	}
	key := connKey{remote: dst, remotePort: dstPort, localPort: local}
	c := h.newConn(key, StateSynSent)
	c.sendSegment(packet.FlagSYN, c.iss, nil, false)
	c.armRTO()
	return c, nil
}

func (h *Host) newConn(key connKey, state ConnState) *Conn {
	iss := uint32(h.kernel.Rand().Int63())
	c := &Conn{
		host:    h,
		key:     key,
		state:   state,
		mss:     h.MSS(),
		wnd:     defaultWindow,
		peerWnd: defaultWindow,
		iss:     iss,
		bufSeq:  iss + 1,
		sndUna:  iss,
		sndNxt:  iss + 1,
		sndMax:  iss + 1,
		rto:     initialRTO,
	}
	c.cwnd = 4 * c.mss // RFC 3390-style initial window
	c.ssthresh = defaultWindow
	c.ooo = make(map[uint32][]byte)
	c.rtoTimer = h.kernel.Timer(c.onRTO)
	h.conns[key] = c
	return c
}

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// Stats returns a snapshot of the connection counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// LocalPort returns the connection's local port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// MSS returns the maximum segment size in use.
func (c *Conn) MSS() int { return c.mss }

// Buffered returns the number of unacknowledged plus unsent bytes.
func (c *Conn) Buffered() int { return len(c.buf) }

// Write queues payload for transmission. It returns an error once the
// local side has closed or the connection is dead.
func (c *Conn) Write(data []byte) error {
	switch c.state {
	case StateSynSent, StateSynRcvd, StateEstablished, StateCloseWait:
	default:
		return fmt.Errorf("stack: write on %v connection", c.state)
	}
	if c.finQueued {
		return fmt.Errorf("stack: write after close")
	}
	c.queue(data)
	c.pump()
	return nil
}

// queue appends data to the send buffer. When the array's tail is too
// short, the queued bytes move down over the acknowledged front; only
// when they would not fit the array at all does it grow, as append
// grows a slice of the queued bytes. Segments never alias buf
// (sendSegment marshals a copy), so moving is safe.
func (c *Conn) queue(data []byte) {
	if need := len(c.buf) + len(data); need > cap(c.buf) {
		if need <= len(c.bufArr) {
			c.buf = c.bufArr[:copy(c.bufArr, c.buf)]
		} else {
			c.buf = slices.Grow(c.buf[:len(c.buf):len(c.buf)], len(data))
			c.bufArr = c.buf[:cap(c.buf)]
		}
	}
	c.buf = append(c.buf, data...)
}

// Close initiates a graceful close: queued data is sent, then a FIN.
func (c *Conn) Close() {
	if c.finQueued || c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	c.finQueued = true
	c.pump()
}

// Abort resets the connection immediately, notifying the peer.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(packet.FlagRST|packet.FlagACK, c.sndNxt, nil, false)
	c.teardown(true)
}

// input processes one inbound segment.
func (c *Conn) input(seg *packet.TCPSegment) {
	if seg.Flags.Has(packet.FlagRST) {
		if c.state == StateSynSent && (!seg.Flags.Has(packet.FlagACK) || seg.Ack != c.iss+1) {
			return // RST not for our SYN
		}
		c.teardown(true)
		return
	}
	c.peerWnd = uint32(seg.Window)

	switch c.state {
	case StateSynSent:
		if seg.Flags.Has(packet.FlagSYN|packet.FlagACK) && seg.Ack == c.iss+1 {
			c.sndUna = seg.Ack
			c.rcvNxt = seg.Seq + 1
			c.state = StateEstablished
			c.resetRTOState()
			c.sendSegment(packet.FlagACK, c.sndNxt, nil, false)
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.pump()
		}
		return
	case StateSynRcvd:
		if seg.Flags.Has(packet.FlagACK) && seg.Ack == c.iss+1 {
			c.sndUna = seg.Ack
			c.state = StateEstablished
			c.resetRTOState()
			if c.OnConnect != nil {
				c.OnConnect()
			}
			// Fall through: the ACK may carry data.
			c.processEstablished(seg)
			c.pump()
		}
		return
	case StateClosed:
		return
	}
	c.processEstablished(seg)
}

// processEstablished handles ACK, data, and FIN for synchronized states.
func (c *Conn) processEstablished(seg *packet.TCPSegment) {
	if seg.Flags.Has(packet.FlagACK) {
		c.processAck(seg.Ack)
	}

	if len(seg.Payload) > 0 && c.receivesData() {
		if !c.receiveData(seg) {
			return
		}
	}

	if seg.Flags.Has(packet.FlagFIN) {
		finSeq := seg.Seq + uint32(len(seg.Payload))
		if finSeq != c.rcvNxt {
			c.sendSegment(packet.FlagACK, c.sndNxt, nil, false)
			return
		}
		c.rcvNxt++
		c.sendSegment(packet.FlagACK, c.sndNxt, nil, false)
		if c.OnPeerClose != nil {
			c.OnPeerClose()
		}
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait1:
			// Our FIN not yet acked (otherwise we'd be in FIN-WAIT-2).
			c.state = StateClosing
		case StateFinWait2:
			c.enterTimeWait()
		}
		return
	}

	c.pump()
}

// receivesData reports whether the state accepts inbound payload.
func (c *Conn) receivesData() bool {
	switch c.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
		return true
	default:
		return false
	}
}

// receiveData handles a data segment: in-order data is delivered and any
// contiguous buffered data drained; out-of-order data within the window
// is buffered for reassembly and acknowledged with a duplicate ACK. It
// reports whether processing of the enclosing segment should continue
// (false for out-of-order segments, whose FIN cannot be processed yet).
func (c *Conn) receiveData(seg *packet.TCPSegment) bool {
	switch {
	case seg.Seq == c.rcvNxt:
		c.deliver(seg.Payload)
		// Drain buffered segments made contiguous by this arrival.
		for {
			p, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.oooBytes -= len(p)
			c.deliver(p)
		}
		if !seg.Flags.Has(packet.FlagFIN) {
			c.sendSegment(packet.FlagACK, c.sndNxt, nil, false)
		}
		return true
	case seqLT(c.rcvNxt, seg.Seq) && seg.Seq-c.rcvNxt < c.wnd:
		// In-window, out-of-order: buffer for reassembly (bounded), and
		// signal the hole with a duplicate ACK.
		if _, dup := c.ooo[seg.Seq]; !dup && c.oooBytes+len(seg.Payload) <= int(c.wnd) {
			c.ooo[seg.Seq] = append([]byte(nil), seg.Payload...)
			c.oooBytes += len(seg.Payload)
		}
		c.stats.DupAcksSent++
		c.sendSegment(packet.FlagACK, c.sndNxt, nil, false)
		return false
	default:
		// Old (already delivered) data: re-acknowledge.
		c.sendSegment(packet.FlagACK, c.sndNxt, nil, false)
		return false
	}
}

func (c *Conn) deliver(p []byte) {
	c.rcvNxt += uint32(len(p))
	c.stats.BytesReceived += uint64(len(p))
	if c.OnData != nil {
		c.OnData(p)
	}
}

func (c *Conn) processAck(ack uint32) {
	if !(seqLT(c.sndUna, ack) && seqLE(ack, c.sndMax)) {
		// Duplicate ACK: after three, fast-retransmit the segment the
		// receiver is waiting for.
		if ack == c.sndUna && c.sndMax != c.sndUna {
			c.dupAcks++
			if c.dupAcks == 3 && !c.fastRecovery {
				// NewReno fast retransmit: halve the window and enter
				// fast recovery until the whole flight is acknowledged.
				c.ssthresh = c.inflight() / 2
				if c.ssthresh < 2*c.mss {
					c.ssthresh = 2 * c.mss
				}
				c.cwnd = c.ssthresh
				c.fastRecovery = true
				c.recover = c.sndMax
				c.stats.FastRetrans++
				c.retransmitFront()
			}
		}
		return
	}
	c.dupAcks = 0
	acked := int(ack - c.sndUna)
	c.sndUna = ack
	if c.fastRecovery {
		if seqLT(ack, c.recover) {
			// Partial ACK: the next hole is at the new sndUna.
			c.retransmitFront()
		} else {
			c.fastRecovery = false
			c.cwnd = c.ssthresh
		}
	} else {
		// Reno window growth: slow start below ssthresh, then additive.
		if c.cwnd < c.ssthresh {
			inc := acked
			if inc > c.mss {
				inc = c.mss
			}
			c.cwnd += inc
		} else {
			c.cwnd += c.mss * c.mss / c.cwnd
		}
		if c.cwnd > defaultWindow {
			c.cwnd = defaultWindow
		}
	}
	if seqLT(c.sndNxt, ack) {
		c.sndNxt = ack
	}

	// Trim acknowledged payload bytes from the buffer.
	dataAck := ack
	if c.finSent && seqLT(c.finSeq, dataAck) {
		dataAck = c.finSeq // don't count the FIN as payload
	}
	if n := int(dataAck - c.bufSeq); n > 0 {
		if n > len(c.buf) {
			n = len(c.buf)
		}
		c.buf = c.buf[n:]
		c.bufSeq += uint32(n)
		c.stats.BytesAcked += uint64(n)
		if c.OnAcked != nil {
			c.OnAcked(n)
		}
	}
	c.resetRTOState()
	if c.sndMax != c.sndUna {
		c.armRTO()
	}

	finAcked := c.finSent && seqLE(c.finSeq+1, ack)
	if finAcked {
		switch c.state {
		case StateFinWait1:
			c.state = StateFinWait2
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.teardown(false)
		}
	}
}

// pump transmits as much queued data (and the queued FIN) as the window
// allows.
func (c *Conn) pump() {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return
	}
	limit := c.wnd
	if c.peerWnd < limit {
		limit = c.peerWnd
	}
	if uint32(c.cwnd) < limit {
		limit = uint32(c.cwnd)
	}
	for {
		offset := int(c.sndNxt - c.bufSeq)
		if offset >= len(c.buf) {
			break
		}
		inflight := c.sndNxt - c.sndUna
		if inflight >= limit {
			break
		}
		n := len(c.buf) - offset
		if n > c.mss {
			n = c.mss
		}
		if avail := int(limit - inflight); n > avail {
			n = avail
		}
		payload := c.buf[offset : offset+n]
		flags := packet.FlagACK
		if offset+n == len(c.buf) {
			flags |= packet.FlagPSH
		}
		retransmit := seqLT(c.sndNxt, c.sndMax)
		c.sendSegment(flags, c.sndNxt, payload, retransmit)
		c.sndNxt += uint32(n)
		if seqLT(c.sndMax, c.sndNxt) {
			c.stats.BytesSent += uint64(c.sndNxt - c.sndMax)
			c.sndMax = c.sndNxt
		}
	}

	if c.finQueued && int(c.sndNxt-c.bufSeq) == len(c.buf) {
		switch {
		case !c.finSent:
			c.finSent = true
			c.finSeq = c.sndNxt
			c.sendSegment(packet.FlagFIN|packet.FlagACK, c.sndNxt, nil, false)
			c.sndNxt++
			if seqLT(c.sndMax, c.sndNxt) {
				c.sndMax = c.sndNxt
			}
			switch c.state {
			case StateEstablished:
				c.state = StateFinWait1
			case StateCloseWait:
				c.state = StateLastAck
			}
		case c.sndNxt == c.finSeq:
			// Go-back-N rolled over an unacknowledged FIN: resend it.
			c.sendSegment(packet.FlagFIN|packet.FlagACK, c.finSeq, nil, true)
			c.sndNxt++
		}
	}
	if c.sndMax != c.sndUna {
		c.armRTO()
	}
}

// inflight returns the number of sent-but-unacknowledged bytes.
func (c *Conn) inflight() int { return int(c.sndMax - c.sndUna) }

// retransmitFront resends the earliest unacknowledged segment (fast
// retransmit).
func (c *Conn) retransmitFront() {
	offset := int(c.sndUna - c.bufSeq)
	if offset >= 0 && offset < len(c.buf) {
		n := len(c.buf) - offset
		if n > c.mss {
			n = c.mss
		}
		c.sendSegment(packet.FlagACK, c.sndUna, c.buf[offset:offset+n], true)
		return
	}
	if c.finSent && c.sndUna == c.finSeq {
		c.sendSegment(packet.FlagFIN|packet.FlagACK, c.finSeq, nil, true)
	}
}

// sendSegment emits one segment. retransmit suppresses the sent counter.
//
//barbican:noalloc
func (c *Conn) sendSegment(flags packet.TCPFlags, seq uint32, payload []byte, retransmit bool) {
	seg := &packet.TCPSegment{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  uint16(c.wnd),
		Payload: payload,
	}
	if !flags.Has(packet.FlagACK) {
		seg.Ack = 0
	}
	c.stats.SegmentsSent++
	if retransmit {
		c.stats.Retransmits++
	}
	c.tx = seg.MarshalTo(c.host.ip, c.key.remote, c.tx[:0])
	c.host.send(c.key.remote, packet.ProtoTCP, c.tx)
}

func (c *Conn) armRTO() {
	if !c.rtoTimer.Pending() {
		c.rtoTimer.Reset(c.rto)
	}
}

func (c *Conn) resetRTOState() {
	c.rtoTimer.Cancel()
	c.retransmits = 0
	c.rto = initialRTO
}

func (c *Conn) onRTO() {
	if c.state == StateClosed || c.state == StateTimeWait {
		return
	}
	if c.sndMax == c.sndUna {
		return // nothing outstanding
	}
	c.retransmits++
	if c.retransmits > maxRetransmits {
		c.teardown(true)
		return
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	// Reno timeout: collapse to one segment and slow-start again.
	c.ssthresh = c.inflight() / 2
	if c.ssthresh < 2*c.mss {
		c.ssthresh = 2 * c.mss
	}
	c.cwnd = c.mss
	c.fastRecovery = false
	c.stats.RTOEvents++

	switch c.state {
	case StateSynSent:
		c.sendSegment(packet.FlagSYN, c.iss, nil, true)
	case StateSynRcvd:
		c.sendSegment(packet.FlagSYN|packet.FlagACK, c.iss, nil, true)
	case StateEstablished, StateCloseWait:
		// Go-back-N: the receiver discards out-of-order segments, so
		// resend everything from the first unacknowledged byte.
		c.sndNxt = c.sndUna
		c.pump()
	default:
		// FIN already sent (FIN-WAIT-1, LAST-ACK, CLOSING): resend the
		// earliest outstanding segment directly; pump no longer runs in
		// these states.
		c.retransmitFront()
	}
	c.armRTO()
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.resetRTOState()
	c.fireClose()
	c.timeWait = c.host.kernel.After(timeWaitDuration, func() {
		c.state = StateClosed
		if c.host.conns[c.key] == c {
			delete(c.host.conns, c.key)
		}
	})
}

// teardown finalizes the connection. reset indicates abnormal termination.
func (c *Conn) teardown(reset bool) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.resetRTOState()
	if c.timeWait != nil {
		c.timeWait.Cancel()
	}
	if c.host.conns[c.key] == c {
		delete(c.host.conns, c.key)
	}
	if reset {
		if c.OnReset != nil {
			c.OnReset()
		}
		return
	}
	c.fireClose()
}

func (c *Conn) fireClose() {
	if c.OnClose != nil {
		cb := c.OnClose
		c.OnClose = nil
		cb()
	}
}

// DefaultSYNBacklog bounds half-open connections per listener, as real
// stacks' SYN queues do. A SYN flood against an open port fills it; new
// SYNs are then dropped silently until handshakes complete or time out.
const DefaultSYNBacklog = 128

// Listener accepts inbound TCP connections on a port.
type Listener struct {
	host     *Host
	port     uint16
	onAccept func(*Conn)

	halfOpen map[connKey]*Conn
	synDrops uint64
}

// ListenTCP binds a TCP listener. onAccept runs when a connection's
// handshake completes; wire the connection's callbacks inside it.
func (h *Host) ListenTCP(port uint16, onAccept func(*Conn)) (*Listener, error) {
	if port == 0 {
		return nil, fmt.Errorf("stack: %s: listener needs an explicit port", h.name)
	}
	if _, used := h.listeners[port]; used {
		return nil, fmt.Errorf("stack: %s: TCP port %d already bound", h.name, port)
	}
	l := &Listener{
		host: h, port: port, onAccept: onAccept,
		halfOpen: make(map[connKey]*Conn),
	}
	h.listeners[port] = l
	return l, nil
}

// SYNDrops returns how many SYNs were dropped by a full backlog.
func (l *Listener) SYNDrops() uint64 { return l.synDrops }

// HalfOpen returns the number of handshakes in progress.
func (l *Listener) HalfOpen() int { return len(l.halfOpen) }

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Close unbinds the listener. Established connections are unaffected.
func (l *Listener) Close() {
	if l.host.listeners[l.port] == l {
		delete(l.host.listeners, l.port)
	}
}

// accept handles an inbound SYN by creating a half-open connection.
func (l *Listener) accept(src packet.IP, syn *packet.TCPSegment) {
	key := connKey{remote: src, remotePort: syn.SrcPort, localPort: l.port}
	if _, exists := l.host.conns[key]; exists {
		return // duplicate SYN; the half-open conn's RTO will resend SYN-ACK
	}
	if len(l.halfOpen) >= DefaultSYNBacklog {
		l.synDrops++
		return // SYN queue full: drop silently, as real stacks do
	}
	c := l.host.newConn(key, StateSynRcvd)
	c.rcvNxt = syn.Seq + 1
	c.peerWnd = uint32(syn.Window)
	l.halfOpen[key] = c
	release := func() {
		if l.halfOpen[key] == c {
			delete(l.halfOpen, key)
		}
	}
	onAccept := l.onAccept
	c.OnConnect = func() {
		release()
		if onAccept != nil {
			onAccept(c)
		}
	}
	// A half-open conn that gives up (RTO exhaustion or RST) must free
	// its backlog slot.
	c.OnReset = release
	c.sendSegment(packet.FlagSYN|packet.FlagACK, c.iss, nil, false)
	c.armRTO()
}
