package stack

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"barbican/internal/faults"
	"barbican/internal/nic"
)

// TestSendBufferCompaction pushes a 4 MB stream through a lossy,
// reordering link in writes of random size, so the send buffer moves
// its queued bytes down many times and retransmissions read from
// offsets that moved. The receiver must see exactly the bytes written,
// and the buffer's array must stay within twice the peak queued bytes.
func TestSendBufferCompaction(t *testing.T) {
	nw := newNet(t)
	a := nw.addHost(t, "a", "10.0.0.1", nic.Standard(), nil)
	b := nw.addHost(t, "b", "10.0.0.2", nic.Standard(), nil)
	a.NIC().Endpoint().SetFaults(faults.Plan{Loss: 0.01, Reorder: 0.02}, 11)

	stream := make([]byte, 4<<20)
	rng := rand.New(rand.NewSource(17))
	rng.Read(stream)
	var received []byte
	if _, err := b.ListenTCP(5001, func(c *Conn) {
		c.OnData = func(p []byte) { received = append(received, p...) }
	}); err != nil {
		t.Fatal(err)
	}
	c, err := a.DialTCP(b.IP(), 5001)
	if err != nil {
		t.Fatal(err)
	}
	sent, peak, compactions, grows := 0, 0, 0, 0
	var retransmitsAtFirstCompaction uint64
	fill := func() {
		for c.Buffered() < 48<<10 && sent < len(stream) {
			n := min(1+rng.Intn(16<<10), len(stream)-sent)
			need := len(c.buf) + n
			switch {
			case need > len(c.bufArr):
				grows++
			case need > cap(c.buf):
				if compactions == 0 {
					retransmitsAtFirstCompaction = c.Stats().Retransmits
				}
				compactions++
			}
			if err := c.Write(stream[sent : sent+n]); err != nil {
				t.Fatal(err)
			}
			sent += n
			peak = max(peak, c.Buffered())
		}
	}
	c.OnConnect = fill
	c.OnAcked = func(int) { fill() }
	if err := nw.kernel.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(received, stream) {
		t.Fatalf("received %d bytes that differ from the %d written", len(received), len(stream))
	}
	if compactions < 50 {
		t.Fatalf("%d compactions; the transfer must move the queued bytes down many times", compactions)
	}
	if retransmits := c.Stats().Retransmits; retransmits <= retransmitsAtFirstCompaction {
		t.Fatalf("no retransmission after the first compaction (%d in all)", retransmits)
	}
	if size := len(c.bufArr); size > 2*peak {
		t.Fatalf("send buffer array is %d bytes for a peak of %d queued", size, peak)
	}
	t.Logf("%d writes moved the queued bytes down, %d grew the array to %d bytes (peak queued %d); %d retransmits",
		compactions, grows, len(c.bufArr), peak, c.Stats().Retransmits)
}
