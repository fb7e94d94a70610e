package apps

import (
	"fmt"
	"strings"

	"barbican/internal/packet"
	"barbican/internal/stack"
)

// The paper's validation effort served DPASA, a survivable
// publish/subscribe/query (PSQ) system. This file provides a small PSQ
// substrate so examples and tests can exercise the firewalls under the
// workload they were deployed to protect.
//
// Line protocol over one persistent TCP connection per client:
//
//	SUB <topic>                 subscribe the connection to a topic
//	PUB <topic> <payload>       publish; fans out MSG lines to subscribers
//	QRY <topic>                 query the retained (last) message
//
// Broker responses:
//
//	MSG <topic> <payload>       fan-out to subscribers
//	RES <topic> <count> <payload>  query result (count = total published)
//	ERR <reason>                protocol error

// DefaultPSQPort is the broker's conventional port.
const DefaultPSQPort = 6100

// PSQBrokerStats counts broker activity.
type PSQBrokerStats struct {
	Connections   uint64
	Subscriptions uint64
	Publishes     uint64
	Queries       uint64
	Fanout        uint64 // MSG lines sent
	Errors        uint64
}

type psqTopic struct {
	retained  string
	published uint64
	subs      map[*stack.Conn]bool
}

// PSQBroker is the publish/subscribe/query server.
type PSQBroker struct {
	host   *stack.Host
	port   uint16
	topics map[string]*psqTopic
	stats  PSQBrokerStats
}

// NewPSQBroker starts a broker on the host.
func NewPSQBroker(h *stack.Host, port uint16) (*PSQBroker, error) {
	if port == 0 {
		port = DefaultPSQPort
	}
	b := &PSQBroker{host: h, port: port, topics: make(map[string]*psqTopic)}
	if _, err := h.ListenTCP(port, b.accept); err != nil {
		return nil, fmt.Errorf("apps: psq broker: %w", err)
	}
	return b, nil
}

// Port returns the broker port.
func (b *PSQBroker) Port() uint16 { return b.port }

// Stats returns a snapshot of the broker counters.
func (b *PSQBroker) Stats() PSQBrokerStats { return b.stats }

func (b *PSQBroker) topic(name string) *psqTopic {
	t := b.topics[name]
	if t == nil {
		t = &psqTopic{subs: make(map[*stack.Conn]bool)}
		b.topics[name] = t
	}
	return t
}

func (b *PSQBroker) accept(c *stack.Conn) {
	b.stats.Connections++
	var buf []byte
	cleanup := func() {
		for _, t := range b.topics {
			delete(t.subs, c)
		}
	}
	c.OnReset = cleanup
	c.OnPeerClose = func() {
		cleanup()
		c.Close()
	}
	c.OnData = func(p []byte) {
		buf = append(buf, p...)
		for {
			idx := indexByte(buf, '\n')
			if idx < 0 {
				return
			}
			line := string(buf[:idx])
			buf = buf[idx+1:]
			b.handleLine(c, strings.TrimRight(line, "\r"))
		}
	}
}

func (b *PSQBroker) handleLine(c *stack.Conn, line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "SUB":
		topic := strings.TrimSpace(rest)
		if topic == "" {
			b.protoErr(c, "SUB needs a topic")
			return
		}
		b.stats.Subscriptions++
		b.topic(topic).subs[c] = true
	case "PUB":
		topic, payload, ok := strings.Cut(rest, " ")
		if !ok || topic == "" {
			b.protoErr(c, "PUB needs a topic and payload")
			return
		}
		b.stats.Publishes++
		t := b.topic(topic)
		t.retained = payload
		t.published++
		for sub := range t.subs {
			if err := writeLine(sub, fmt.Sprintf("MSG %s %s", topic, payload)); err == nil {
				b.stats.Fanout++
			}
		}
	case "QRY":
		topic := strings.TrimSpace(rest)
		if topic == "" {
			b.protoErr(c, "QRY needs a topic")
			return
		}
		b.stats.Queries++
		t := b.topic(topic)
		writeLine(c, fmt.Sprintf("RES %s %d %s", topic, t.published, t.retained))
	default:
		b.protoErr(c, "unknown command "+cmd)
	}
}

func (b *PSQBroker) protoErr(c *stack.Conn, reason string) {
	b.stats.Errors++
	writeLine(c, "ERR "+reason)
}

func writeLine(c *stack.Conn, line string) error {
	return c.Write(append([]byte(line), '\n'))
}

func indexByte(b []byte, ch byte) int {
	for i, v := range b {
		if v == ch {
			return i
		}
	}
	return -1
}

// PSQMessage is a received publication or query result.
type PSQMessage struct {
	Topic   string
	Payload string
	// Count is the total publications on the topic (query results only).
	Count uint64
}

// PSQClient is a PSQ participant holding one connection to the broker.
type PSQClient struct {
	conn      *stack.Conn
	connected bool

	// OnMessage receives publications for subscribed topics.
	OnMessage func(m PSQMessage)
	// OnResult receives query results.
	OnResult func(m PSQMessage)
	// OnError receives broker protocol errors.
	OnError func(reason string)
	// OnDisconnect fires when the broker connection dies.
	OnDisconnect func()

	pending []string // lines queued before the handshake completes
	buf     []byte
}

// DialPSQ connects a client to the broker.
func DialPSQ(h *stack.Host, broker packet.IP, port uint16) (*PSQClient, error) {
	if port == 0 {
		port = DefaultPSQPort
	}
	conn, err := h.DialTCP(broker, port)
	if err != nil {
		return nil, fmt.Errorf("apps: psq dial: %w", err)
	}
	cl := &PSQClient{conn: conn}
	conn.OnConnect = func() {
		cl.connected = true
		for _, line := range cl.pending {
			writeLine(conn, line)
		}
		cl.pending = nil
	}
	conn.OnData = cl.onData
	conn.OnReset = func() {
		if cl.OnDisconnect != nil {
			cl.OnDisconnect()
		}
	}
	conn.OnPeerClose = func() {
		if cl.OnDisconnect != nil {
			cl.OnDisconnect()
		}
		conn.Close()
	}
	return cl, nil
}

// Connected reports whether the broker handshake has completed.
func (c *PSQClient) Connected() bool { return c.connected }

// Close tears down the client connection.
func (c *PSQClient) Close() { c.conn.Close() }

func (c *PSQClient) send(line string) {
	if !c.connected {
		c.pending = append(c.pending, line)
		return
	}
	writeLine(c.conn, line)
}

// Subscribe registers interest in a topic; publications arrive via
// OnMessage.
func (c *PSQClient) Subscribe(topic string) { c.send("SUB " + topic) }

// Publish sends one publication.
func (c *PSQClient) Publish(topic, payload string) { c.send("PUB " + topic + " " + payload) }

// Query asks for a topic's retained message; the answer arrives via
// OnResult.
func (c *PSQClient) Query(topic string) { c.send("QRY " + topic) }

func (c *PSQClient) onData(p []byte) {
	c.buf = append(c.buf, p...)
	for {
		idx := indexByte(c.buf, '\n')
		if idx < 0 {
			return
		}
		line := strings.TrimRight(string(c.buf[:idx]), "\r")
		c.buf = c.buf[idx+1:]
		c.handleLine(line)
	}
}

func (c *PSQClient) handleLine(line string) {
	cmd, rest, _ := strings.Cut(line, " ")
	switch cmd {
	case "MSG":
		topic, payload, _ := strings.Cut(rest, " ")
		if c.OnMessage != nil {
			c.OnMessage(PSQMessage{Topic: topic, Payload: payload})
		}
	case "RES":
		topic, rest2, _ := strings.Cut(rest, " ")
		countStr, payload, _ := strings.Cut(rest2, " ")
		var count uint64
		fmt.Sscanf(countStr, "%d", &count)
		if c.OnResult != nil {
			c.OnResult(PSQMessage{Topic: topic, Payload: payload, Count: count})
		}
	case "ERR":
		if c.OnError != nil {
			c.OnError(rest)
		}
	}
}
