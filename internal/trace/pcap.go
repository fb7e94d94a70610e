package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Classic libpcap file format constants.
const (
	pcapMagic        = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	pcapSnapLen      = 65535
	linkTypeEthernet = 1
)

// WritePCAP writes the capture as a classic pcap file (microsecond
// timestamps, Ethernet link type) readable by tcpdump and Wireshark.
func (c *Capture) WritePCAP(w io.Writer) error {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMinor)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkTypeEthernet)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("trace: pcap header: %w", err)
	}
	for i, r := range c.records {
		data := r.Frame.Marshal()
		rec := make([]byte, 16, 16+len(data))
		usec := r.At.Microseconds()
		binary.LittleEndian.PutUint32(rec[0:4], uint32(usec/1_000_000))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(usec%1_000_000))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(len(data)))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(r.Frame.FrameLen()))
		rec = append(rec, data...)
		if _, err := w.Write(rec); err != nil {
			return fmt.Errorf("trace: pcap record %d: %w", i, err)
		}
	}
	return nil
}
