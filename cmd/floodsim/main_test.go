package main

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"barbican/internal/core"
)

func TestParseDevice(t *testing.T) {
	tests := []struct {
		give    string
		want    core.Device
		wantErr bool
	}{
		{give: "efw", want: core.DeviceEFW},
		{give: "EFW", want: core.DeviceEFW},
		{give: "adf", want: core.DeviceADF},
		{give: "vpg", want: core.DeviceADFVPG},
		{give: "adf-vpg", want: core.DeviceADFVPG},
		{give: "iptables", want: core.DeviceIPTables},
		{give: "standard", want: core.DeviceStandard},
		{give: "none", want: core.DeviceStandard},
		{give: "3com", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseDevice(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseDevice(%q) = %v, want error", tt.give, got)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("parseDevice(%q) = %v, %v; want %v", tt.give, got, err, tt.want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-device", "hal9000"}); err == nil {
		t.Error("unknown device accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestRunMeasurementAndPcap: -pcap works alone and combined with the
// artifact flags, and observation never changes what the wire carried —
// every case captures the same frames.
func TestRunMeasurementAndPcap(t *testing.T) {
	tests := []struct {
		name      string
		artifacts bool
	}{
		{name: "pcap only"},
		{name: "pcap with metrics and trace", artifacts: true},
	}
	frames := -1
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			pcap := filepath.Join(dir, "out.pcap")
			args := []string{"-device", "efw", "-depth", "4", "-rate", "1000",
				"-duration", "200ms", "-pcap", pcap}
			if tt.artifacts {
				args = append(args, "-metrics-out", filepath.Join(dir, "m"), "-trace-out", filepath.Join(dir, "t"))
			}
			if err := run(args); err != nil {
				t.Fatalf("run: %v", err)
			}
			data, err := os.ReadFile(pcap)
			if err != nil {
				t.Fatal(err)
			}
			got := pcapRecords(t, data)
			if got == 0 {
				t.Fatal("pcap holds no frames")
			}
			if frames >= 0 && got != frames {
				t.Errorf("pcap holds %d frames, pcap-only run held %d", got, frames)
			}
			frames = got
			if !tt.artifacts {
				return
			}
			base := "floodsim_efw_depth-4_rate-1000_allowed"
			for _, p := range []string{
				filepath.Join(dir, "m", base+".prom"),
				filepath.Join(dir, "t", base+".trace.json"),
			} {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("artifact %s missing or empty (%v)", p, err)
				}
			}
		})
	}
}

// pcapRecords walks a classic little-endian pcap file and returns its
// record count, failing unless the records tile the file exactly.
func pcapRecords(t *testing.T, data []byte) int {
	t.Helper()
	if len(data) < 24 || binary.LittleEndian.Uint32(data) != 0xa1b2c3d4 {
		t.Fatal("not a little-endian pcap file")
	}
	n := 0
	for off := 24; off < len(data); n++ {
		if len(data)-off < 16 {
			t.Fatalf("truncated record header at offset %d", off)
		}
		off += 16 + int(binary.LittleEndian.Uint32(data[off+8:]))
		if off > len(data) {
			t.Fatalf("record %d runs past the end of the file", n)
		}
	}
	return n
}

func TestRunSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("binary search is slow")
	}
	if err := run([]string{"-device", "efw", "-depth", "64", "-search", "-duration", "1s"}); err != nil {
		t.Fatalf("run -search: %v", err)
	}
}
