package trace_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"barbican/internal/core"
	"barbican/internal/trace"
)

// validPCAP builds a well-formed single-record pcap in memory so the
// malformed-input tests can corrupt known-good bytes instead of
// hand-assembling files.
func validPCAP(t *testing.T) []byte {
	t.Helper()
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	binary.LittleEndian.PutUint16(hdr[6:8], 4)
	binary.LittleEndian.PutUint32(hdr[16:20], 65535)
	binary.LittleEndian.PutUint32(hdr[20:24], 1) // Ethernet
	frame := bytes.Repeat([]byte{0xee}, 60)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(frame)))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(frame)))
	return append(append(hdr, rec...), frame...)
}

func TestReadPCAPValidBaseline(t *testing.T) {
	frames, err := trace.ReadPCAP(bytes.NewReader(validPCAP(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || len(frames[0]) != 60 {
		t.Fatalf("frames = %d (len %d), want 1 of 60 bytes", len(frames), len(frames[0]))
	}
}

func TestReadPCAPMalformed(t *testing.T) {
	good := validPCAP(t)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr string
	}{
		{
			name:    "empty input",
			mutate:  func(b []byte) []byte { return nil },
			wantErr: "header",
		},
		{
			name:    "truncated file header",
			mutate:  func(b []byte) []byte { return b[:10] },
			wantErr: "header",
		},
		{
			name: "bad magic",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[0:4], 0xdeadbeef)
				return b
			},
			wantErr: "magic",
		},
		{
			name: "wrong link type",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[20:24], 101) // LINKTYPE_RAW
				return b
			},
			wantErr: "link type",
		},
		{
			name:    "truncated record header",
			mutate:  func(b []byte) []byte { return b[:24+7] },
			wantErr: "record header",
		},
		{
			name:    "truncated record body",
			mutate:  func(b []byte) []byte { return b[:len(b)-30] },
			wantErr: "record body",
		},
		{
			name: "record length over snaplen",
			mutate: func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[24+8:24+12], 1<<20)
				return b
			},
			wantErr: "snaplen",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.mutate(append([]byte(nil), good...))
			frames, err := trace.ReadPCAP(bytes.NewReader(in))
			if err == nil {
				t.Fatalf("parsed %d frames from malformed input, want error", len(frames))
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestPCAPFloodRoundTrip closes the loop on a real run: capture the
// target-bound wire during a flooded bandwidth measurement, write the
// pcap, and read it back with the independent reader.
func TestPCAPFloodRoundTrip(t *testing.T) {
	_, inst, err := core.RunBandwidthObserved(core.Scenario{
		Device:       core.DeviceEFW,
		Depth:        4,
		FloodRatePPS: 2000,
		FloodAllowed: true,
		Duration:     200 * time.Millisecond,
	}, core.ObserveOptions{Capture: true})
	if err != nil {
		t.Fatal(err)
	}
	cap := inst.Capture
	if cap.Len() == 0 {
		t.Fatal("flood run captured no frames")
	}

	var buf bytes.Buffer
	if err := cap.WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	frames, err := trace.ReadPCAP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != cap.Len() {
		t.Fatalf("read %d frames, capture holds %d", len(frames), cap.Len())
	}
	for i, r := range cap.Records() {
		if len(frames[i]) != len(r.Frame.Marshal()) {
			t.Fatalf("frame %d: read %d bytes, wrote %d", i, len(frames[i]), len(r.Frame.Marshal()))
		}
	}
}
