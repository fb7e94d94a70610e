package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"barbican/internal/sim"
)

// TestHelpEscapeRoundTrip: HELP strings containing backslashes or
// newlines must survive WritePromText → ParsePromText unchanged. A raw
// newline in a HELP line would otherwise start a bogus exposition line.
func TestHelpEscapeRoundTrip(t *testing.T) {
	help := `Matches path C:\tmp\rules.
Second line; still one HELP string.`
	reg := NewRegistry()
	reg.MustRegisterFunc("weird_total", help, KindCounter, func() float64 { return 1 })

	var buf bytes.Buffer
	if err := reg.WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 3 { // HELP, TYPE, sample
		t.Fatalf("escaped exposition has wrong line count:\n%s", out)
	}
	if !strings.Contains(out, `C:\\tmp\\rules.\nSecond`) {
		t.Fatalf("HELP not escaped on write:\n%s", out)
	}

	fams, err := ParsePromText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Help != help {
		t.Fatalf("HELP round-trip mangled: %q != %q", fams[0].Help, help)
	}

	// The same escaping applies to the recorder's timeline exposition.
	k := sim.NewKernel()
	rec := NewRecorder(k, reg, 50*time.Millisecond)
	rec.Start()
	if err := k.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Stop()
	var tbuf bytes.Buffer
	if err := rec.WritePromText(&tbuf); err != nil {
		t.Fatal(err)
	}
	tfams, err := ParsePromText(&tbuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tfams) != 1 || tfams[0].Help != help {
		t.Fatalf("recorder HELP round-trip mangled: %q", tfams[0].Help)
	}
	if strings.Count(unescapeHelp(escapeHelp(help)), "\n") != 1 {
		t.Fatal("escape/unescape not inverse")
	}
}

// TestRecorderCSVRoundTrip parses the recorder's CSV export back and
// checks the cumulative values and derived rates agree with the
// recorded timeline.
func TestRecorderCSVRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	var pkts float64
	reg.MustRegisterFunc("pkts_total", "Packets.", KindCounter, func() float64 { return pkts })
	reg.MustRegisterFunc("depth", "Queue depth.", KindGauge, func() float64 { return 3 })
	rec := NewRecorder(k, reg, 100*time.Millisecond)
	rec.Start()
	k.After(30*time.Millisecond, func() { pkts = 20 })
	k.After(130*time.Millisecond, func() { pkts = 50 })
	if err := k.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Stop()

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_s,pkts_total,depth,rate:pkts_total" {
		t.Fatalf("header = %q", lines[0])
	}
	// Ticks at 0, 100ms, 200ms, 300ms.
	if len(lines) != 5 {
		t.Fatalf("%d csv lines, want 5:\n%s", len(lines), buf.String())
	}
	parse := func(line string) []string { return strings.Split(line, ",") }
	for i, want := range []struct {
		pkts, rate string
	}{
		{"0", ""},     // t=0: nothing yet, no rate for first tick
		{"20", "200"}, // t=0.1: 20 pkts over 0.1s
		{"50", "300"}, // t=0.2: +30 over 0.1s
		{"50", "0"},   // t=0.3: flat
	} {
		cells := parse(lines[i+1])
		if cells[1] != want.pkts || cells[3] != want.rate {
			t.Errorf("tick %d: pkts=%q rate=%q, want %q/%q (row %q)", i, cells[1], cells[3], want.pkts, want.rate, lines[i+1])
		}
		if cells[2] != "3" {
			t.Errorf("tick %d: gauge = %q, want 3", i, cells[2])
		}
	}
}
