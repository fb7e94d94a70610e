package obs

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"barbican/internal/sim"
)

// TestHelpEscapeRoundTrip: HELP strings containing backslashes or
// newlines must survive the snapshot's WritePromText → ParsePromText
// unchanged. A raw newline in a HELP line would otherwise start a bogus
// exposition line.
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

	if strings.Count(unescapeHelp(escapeHelp(help)), "\n") != 1 {
		t.Fatal("escape/unescape not inverse")
	}
}

// TestRecorderCSVRoundTrip parses the recorder's CSV timeline back with
// encoding/csv: the header carries every series ID exactly (labels with
// commas and quotes included), each column holds every recorded point at
// its virtual time, a series registered mid-run has empty cells before
// it existed, and the rate columns are the per-second first differences.
func TestRecorderCSVRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	var pkts, late float64
	reg.MustRegisterFunc("pkts_total", "Packets.", KindCounter, func() float64 { return pkts }, L("dir", "rx"), L("host", "a"))
	reg.MustRegisterFunc("depth", "Queue depth.", KindGauge, func() float64 { return 3 })
	rec := NewRecorder(k, reg, 100*time.Millisecond)
	rec.Start()
	k.After(30*time.Millisecond, func() { pkts = 20 })
	k.After(130*time.Millisecond, func() { pkts = 50 })
	k.After(150*time.Millisecond, func() {
		late = 7
		reg.MustRegisterFunc("late_total", "Registered after the first tick.", KindCounter, func() float64 { return late }, L("note", `say "hi"`))
	})
	k.After(250*time.Millisecond, func() { late = 9 })
	if err := k.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Stop()

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("timeline CSV does not parse: %v", err)
	}
	const pktsID, lateID = `pkts_total{dir="rx",host="a"}`, `late_total{note="say \"hi\""}`
	wantHeader := []string{"time_s", pktsID, "depth", lateID, "rate:" + pktsID, "rate:" + lateID}
	if strings.Join(rows[0], "|") != strings.Join(wantHeader, "|") {
		t.Fatalf("header = %q, want %q", rows[0], wantHeader)
	}
	// Ticks at 0, 100ms, 200ms, 300ms.
	if len(rows) != 5 {
		t.Fatalf("%d csv rows, want 5:\n%s", len(rows), buf.String())
	}
	ticks := rows[1:]

	// Every recorded point sits in its series' column at its virtual
	// time; the cells before the series existed are empty.
	for col, id := range wantHeader[1:4] {
		sd, ok := rec.Series(id)
		if !ok {
			t.Fatalf("series %s missing from recorder", id)
		}
		skip := len(ticks) - len(sd.Points)
		for i, row := range ticks[:skip] {
			if row[col+1] != "" {
				t.Errorf("%s: tick %d before registration holds %q", id, i, row[col+1])
			}
		}
		for i, p := range sd.Points {
			row := ticks[skip+i]
			at, err := strconv.ParseFloat(row[0], 64)
			if err != nil || math.Abs(at-p.T.Seconds()) > 1e-9 {
				t.Errorf("%s point %d: time_s %q, want %v", id, i, row[0], p.T.Seconds())
			}
			if v, err := strconv.ParseFloat(row[col+1], 64); err != nil || v != p.V {
				t.Errorf("%s point %d: cell %q, want %g", id, i, row[col+1], p.V)
			}
		}
	}
	for i, want := range []struct {
		pkts, pktsRate, late, lateRate string
	}{
		{"0", "", "", ""},      // t=0: nothing yet, no rate for first tick
		{"20", "200", "", ""},  // t=0.1: 20 pkts over 0.1s
		{"50", "300", "7", ""}, // t=0.2: +30 over 0.1s; late appears, no rate yet
		{"50", "0", "9", "20"}, // t=0.3: flat; late +2 over 0.1s
	} {
		row := ticks[i]
		got := [4]string{row[1], row[4], row[3], row[5]}
		if got != [4]string{want.pkts, want.pktsRate, want.late, want.lateRate} {
			t.Errorf("tick %d: pkts/rate/late/rate = %q, want %+v", i, got, want)
		}
		if row[2] != "3" {
			t.Errorf("tick %d: gauge = %q, want 3", i, row[2])
		}
	}
}
