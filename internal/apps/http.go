// Package apps provides the application substrates the paper's
// experiments run against: an HTTP/1.0-subset web server standing in for
// the Apache 2 instance behind the firewall, a matching client, and a
// counting UDP sink.
package apps

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"barbican/internal/packet"
	"barbican/internal/stack"
)

// HTTPPort is the web server's port, the one measure.RunHTTPLoad
// fetches from.
const HTTPPort = 80

// PageSize is the body size served for every request. It approximates
// the default Gentoo Apache index page the paper's http_load fetched.
const PageSize = 10 * 1024

// ServiceTime is the server-side processing time per request. It
// approximates Apache 2 on the paper's 1 GHz PIII serving a static
// page: request parsing, filesystem cache hit, and process scheduling.
const ServiceTime = 3 * time.Millisecond

// HTTPServerStats counts server activity.
type HTTPServerStats struct {
	Connections uint64
	Requests    uint64
	BytesServed uint64
	BadRequests uint64
}

// HTTPServer is a minimal HTTP/1.0 server: it answers every GET with a
// fixed-size page and closes the connection, like Apache serving a static
// index with keep-alive off.
type HTTPServer struct {
	host  *stack.Host
	page  []byte
	stats HTTPServerStats
}

// NewHTTPServer starts a web server on the host's HTTPPort.
func NewHTTPServer(h *stack.Host) (*HTTPServer, error) {
	s := &HTTPServer{host: h, page: buildPage(PageSize)}
	if _, err := h.ListenTCP(HTTPPort, s.accept); err != nil {
		return nil, fmt.Errorf("apps: http server: %w", err)
	}
	return s, nil
}

// Stats returns a snapshot of the server counters.
func (s *HTTPServer) Stats() HTTPServerStats { return s.stats }

func (s *HTTPServer) accept(c *stack.Conn) {
	s.stats.Connections++
	var req bytes.Buffer
	c.OnData = func(p []byte) {
		req.Write(p)
		if !bytes.Contains(req.Bytes(), []byte("\r\n\r\n")) {
			return
		}
		line, _, _ := strings.Cut(req.String(), "\r\n")
		if !strings.HasPrefix(line, "GET ") {
			s.stats.BadRequests++
			resp := "HTTP/1.0 400 Bad Request\r\nContent-Length: 0\r\n\r\n"
			if err := c.Write([]byte(resp)); err == nil {
				c.Close()
			}
			return
		}
		s.stats.Requests++
		header := fmt.Sprintf(
			"HTTP/1.0 200 OK\r\nServer: barbican-apache/2.0\r\nContent-Type: text/html\r\nContent-Length: %d\r\n\r\n",
			len(s.page))
		s.stats.BytesServed += uint64(len(s.page))
		respond := func() {
			if err := c.Write(append([]byte(header), s.page...)); err != nil {
				return
			}
			c.Close()
		}
		s.host.Kernel().After(ServiceTime, respond)
	}
}

func buildPage(size int) []byte {
	var b bytes.Buffer
	b.WriteString("<html><head><title>It works!</title></head><body>\n")
	line := []byte("<p>This is the default page served by the barbican web server.</p>\n")
	for b.Len() < size-len("</body></html>\n") {
		b.Write(line)
	}
	b.Truncate(size - len("</body></html>\n"))
	b.WriteString("</body></html>\n")
	return b.Bytes()
}

// FetchResult reports one HTTP fetch.
type FetchResult struct {
	Status    int
	BodyBytes int
	Err       error
}

// HTTPClient issues sequential HTTP/1.0 GETs.
type HTTPClient struct {
	host *stack.Host
}

// NewHTTPClient creates a client on the host.
func NewHTTPClient(h *stack.Host) *HTTPClient {
	return &HTTPClient{host: h}
}

// Get fetches / from the server, invoking callbacks as the fetch
// progresses: onConnect when the handshake completes, onFirstByte when
// the first response byte arrives, and done when the response completes
// (or fails).
func (c *HTTPClient) Get(dst packet.IP, port uint16, onConnect, onFirstByte func(), done func(FetchResult)) error {
	conn, err := c.host.DialTCP(dst, port)
	if err != nil {
		return err
	}
	var (
		resp     bytes.Buffer
		sawFirst bool
		finished bool
	)
	finish := func(r FetchResult) {
		if finished {
			return
		}
		finished = true
		if done != nil {
			done(r)
		}
	}
	conn.OnConnect = func() {
		if onConnect != nil {
			onConnect()
		}
		if err := conn.Write([]byte("GET / HTTP/1.0\r\nHost: server\r\n\r\n")); err != nil {
			finish(FetchResult{Err: err})
		}
	}
	conn.OnData = func(p []byte) {
		if !sawFirst {
			sawFirst = true
			if onFirstByte != nil {
				onFirstByte()
			}
		}
		resp.Write(p)
		if r, ok := parseResponse(resp.Bytes()); ok {
			finish(r)
			conn.Close()
		}
	}
	conn.OnPeerClose = func() {
		if r, ok := parseResponse(resp.Bytes()); ok {
			finish(r)
		} else {
			finish(FetchResult{Err: fmt.Errorf("apps: truncated response (%d bytes)", resp.Len())})
		}
		conn.Close()
	}
	conn.OnReset = func() {
		finish(FetchResult{Err: fmt.Errorf("apps: connection reset")})
	}
	return nil
}

// parseResponse reports whether buf holds a complete HTTP response and
// extracts its status and body size.
func parseResponse(buf []byte) (FetchResult, bool) {
	head, body, found := bytes.Cut(buf, []byte("\r\n\r\n"))
	if !found {
		return FetchResult{}, false
	}
	lines := strings.Split(string(head), "\r\n")
	fields := strings.Fields(lines[0])
	if len(fields) < 2 || !strings.HasPrefix(fields[0], "HTTP/") {
		return FetchResult{}, false
	}
	status, err := strconv.Atoi(fields[1])
	if err != nil {
		return FetchResult{}, false
	}
	contentLen := -1
	for _, l := range lines[1:] {
		name, val, ok := strings.Cut(l, ":")
		if ok && strings.EqualFold(strings.TrimSpace(name), "Content-Length") {
			if n, err := strconv.Atoi(strings.TrimSpace(val)); err == nil {
				contentLen = n
			}
		}
	}
	if contentLen < 0 || len(body) < contentLen {
		return FetchResult{}, false
	}
	return FetchResult{Status: status, BodyBytes: contentLen}, true
}

// UDPSink counts datagrams delivered to a port (the iperf server role).
type UDPSink struct {
	sock *stack.UDPSocket
}

// NewUDPSink binds a counting sink on the port.
func NewUDPSink(h *stack.Host, port uint16) (*UDPSink, error) {
	sock, err := h.BindUDP(port)
	if err != nil {
		return nil, fmt.Errorf("apps: udp sink: %w", err)
	}
	return &UDPSink{sock: sock}, nil
}

// Received returns delivered datagram and payload byte counts.
func (s *UDPSink) Received() (datagrams, bytes uint64) { return s.sock.Received() }

// Close unbinds the sink.
func (s *UDPSink) Close() { s.sock.Close() }
