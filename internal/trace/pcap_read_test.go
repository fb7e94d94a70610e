package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ReadPCAP parses a classic pcap file produced by WritePCAP, returning
// the raw frame bytes of each record: an independent reader the tests
// check the writer against.
func ReadPCAP(r io.Reader) ([][]byte, error) {
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("trace: pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pcapMagic {
		return nil, fmt.Errorf("trace: bad pcap magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != linkTypeEthernet {
		return nil, fmt.Errorf("trace: unexpected link type %d", lt)
	}
	var frames [][]byte
	rec := make([]byte, 16)
	for {
		if _, err := io.ReadFull(r, rec); err != nil {
			if err == io.EOF {
				return frames, nil
			}
			return nil, fmt.Errorf("trace: pcap record header: %w", err)
		}
		n := binary.LittleEndian.Uint32(rec[8:12])
		if n > pcapSnapLen {
			return nil, fmt.Errorf("trace: record length %d exceeds snaplen", n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("trace: pcap record body: %w", err)
		}
		frames = append(frames, data)
	}
}
