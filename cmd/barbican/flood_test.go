package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// withoutWallClock drops the accounting summary, the one output line
// that depends on the wall clock.
func withoutWallClock(s string) string {
	var keep []string
	for _, line := range strings.SplitAfter(s, "\n") {
		if !strings.Contains(line, "wall clock") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "")
}

func TestFloodRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-device", "hal9000"},
		{"-definitely-not-a-flag"},
		{"-depth", "1,x"},
		{"-rate", "fast"},
		{"-faults", "loss=lots"},
		{"extra"},
	} {
		if err := run(io.Discard, append([]string{"flood"}, args...)); err == nil {
			t.Errorf("flood %v accepted", args)
		}
	}
	err := run(io.Discard, []string{"flood", "-device", "hal9000"})
	if err == nil || !strings.Contains(err.Error(), "standard|efw|adf|vpg|iptables|nextgen|stateful") {
		t.Errorf("unknown-device error %v does not list the device names", err)
	}
}

// TestFloodEveryDevice: every name the device table holds runs a flood
// point, stateful and iptables included.
func TestFloodEveryDevice(t *testing.T) {
	for _, name := range []string{"standard", "none", "efw", "adf", "vpg", "adf-vpg", "iptables", "nextgen", "stateful"} {
		var out bytes.Buffer
		if err := run(&out, []string{"flood", "-device", name, "-depth", "4", "-rate", "1000", "-duration", "100ms"}); err != nil {
			t.Errorf("flood -device %s: %v", name, err)
			continue
		}
		if !strings.Contains(out.String(), "depth=4 flood=1000 pps (allowed)") {
			t.Errorf("flood -device %s printed no point:\n%s", name, out.String())
		}
	}
}

// TestFloodSweepGolden: a depth × rate sweep prints the pinned report,
// byte for byte, serially and on four workers.
func TestFloodSweepGolden(t *testing.T) {
	floodGolden(t, "flood_efw_sweep.golden", "-device", "efw", "-depth", "1,64", "-rate", "4000,12500",
		"-duration", "500ms", "-seed", "1")
}

// TestFloodFaultsGolden: a sweep under a data-plane fault plan that
// loses, corrupts, duplicates and reorders frames on the target's link
// prints the pinned report, serially and on four workers.
func TestFloodFaultsGolden(t *testing.T) {
	floodGolden(t, "flood_adf_faults.golden", "-device", "adf", "-depth", "1,16", "-rate", "0,8000",
		"-duration", "1s", "-faults", "loss=0.05,corrupt=0.01,dup=0.02,reorder=0.05", "-fault-seed", "42")
}

// floodGolden runs flood with args at -parallel 1 and 4 and compares
// each output, minus the wall-clock line, with testdata/golden.
func floodGolden(t *testing.T, golden string, args ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs simulations")
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run(&out, append(append([]string{"flood"}, args...), "-parallel", parallel)); err != nil {
			t.Fatalf("-parallel %s: %v", parallel, err)
		}
		if got := withoutWallClock(out.String()); got != string(want) {
			t.Errorf("-parallel %s output differs from the golden:\n%s", parallel, got)
		}
	}
}

// TestFloodMeasurementAndPcap: -pcap-out works alone and combined with
// the other artifact flags, and observation never changes what the wire
// carried — every case captures the same frames.
func TestFloodMeasurementAndPcap(t *testing.T) {
	tests := []struct {
		name      string
		artifacts bool
	}{
		{name: "pcap only"},
		{name: "pcap with metrics and trace", artifacts: true},
	}
	const label = "efw_depth-4_rate-1000_allowed"
	frames := -1
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			args := []string{"flood", "-device", "efw", "-depth", "4", "-rate", "1000",
				"-duration", "200ms", "-pcap-out", filepath.Join(dir, "p")}
			if tt.artifacts {
				args = append(args, "-metrics-out", filepath.Join(dir, "m"), "-trace-out", filepath.Join(dir, "t"))
			}
			if err := run(io.Discard, args); err != nil {
				t.Fatalf("run: %v", err)
			}
			data, err := os.ReadFile(filepath.Join(dir, "p", "flood", label+".pcap"))
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
			for _, p := range []string{
				filepath.Join(dir, "m", "flood", label+".csv"),
				filepath.Join(dir, "t", "flood", label+".trace.json"),
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

func TestFloodSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("binary search is slow")
	}
	var out bytes.Buffer
	if err := run(&out, []string{"flood", "-device", "efw", "-depth", "64", "-search", "-duration", "1s"}); err != nil {
		t.Fatalf("flood -search: %v", err)
	}
	if !strings.Contains(out.String(), "EFW depth=64 flood-allowed: minimum DoS flood rate ≈ ") {
		t.Errorf("search printed no threshold:\n%s", out.String())
	}
}
