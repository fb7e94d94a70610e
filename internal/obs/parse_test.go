package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"barbican/internal/sim"
)

// TestRegistrySnapshotRoundTripsThroughParser: WritePromText output must
// parse back into the exact families, kinds, labels, and values the
// registry gathered.
func TestRegistrySnapshotRoundTripsThroughParser(t *testing.T) {
	reg := NewRegistry()
	value := func(v float64) func() float64 { return func() float64 { return v } }
	reg.MustRegisterFunc("pkts_total", "Packets seen.", KindCounter, value(42), L("dir", "rx"), L("host", "target"))
	reg.MustRegisterFunc("queue_depth", "Ring occupancy.", KindGauge, value(7.5))
	reg.MustRegisterFunc("pkts_total", "Packets seen.", KindCounter, value(0), L("dir", "tx"), L("host", "target"))

	var buf bytes.Buffer
	if err := reg.WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePromText(&buf)
	if err != nil {
		t.Fatalf("exported snapshot does not parse: %v", err)
	}
	if len(fams) != 2 {
		t.Fatalf("parsed %d families, want 2", len(fams))
	}

	pk := fams[0]
	if pk.Name != "pkts_total" || pk.Kind != "counter" || pk.Help != "Packets seen." {
		t.Fatalf("family metadata mangled: %+v", pk)
	}
	if len(pk.Samples) != 2 {
		t.Fatalf("pkts_total has %d samples, want 2", len(pk.Samples))
	}
	rx := pk.Samples[0]
	if rx.Value != 42 || rx.Labels["dir"] != "rx" || rx.Labels["host"] != "target" {
		t.Fatalf("rx sample mangled: %+v", rx)
	}
	if tx := pk.Samples[1]; tx.Value != 0 || tx.Labels["dir"] != "tx" {
		t.Fatalf("tx sample mangled: %+v", tx)
	}
	qd := fams[1]
	if qd.Kind != "gauge" || len(qd.Samples) != 1 || qd.Samples[0].Value != 7.5 {
		t.Fatalf("gauge family mangled: %+v", qd)
	}
	if qd.Samples[0].ID != "queue_depth" {
		t.Fatalf("unlabeled ID = %q", qd.Samples[0].ID)
	}
}

// TestParsePromTextRejectsGarbage: malformed lines are errors, not
// silently skipped samples.
func TestParsePromTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"pkts_total{dir=\"rx\" 1",    // unterminated label set
		"pkts_total{dir=rx} 1",       // unquoted label value
		"pkts_total one",             // non-numeric value
		"pkts_total 1 2 3",           // too many fields
		"pkts_total{dir=\"rx\"} 1 0", // a timestamp: snapshots carry none
	} {
		if _, err := ParsePromText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParsePromText(%q) accepted garbage", bad)
		}
	}
}

// TestParsePromTextLabelEscapes: quoted values with escaped quotes,
// backslashes, and newlines survive the trip.
func TestParsePromTextLabelEscapes(t *testing.T) {
	in := `weird{name="a \"b\" \\ c"} 1` + "\n"
	fams, err := ParsePromText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got := fams[0].Samples[0].Labels["name"]; got != `a "b" \ c` {
		t.Fatalf("escaped label = %q", got)
	}
}

// TestRecorderEvictsOldestTickAtLimit: the flight recorder's retention
// limit drops the oldest tick, keeps the rest in order, and counts the
// eviction in Dropped().
func TestRecorderEvictsOldestTickAtLimit(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	var v float64
	reg.MustRegisterFunc("v", "test level", KindGauge, func() float64 { return v })
	rec := NewRecorder(k, reg, time.Millisecond)

	for i := 0; i <= DefaultTickLimit; i++ {
		v = float64(i)
		rec.Sample()
	}

	if got := len(rec.Ticks()); got != DefaultTickLimit {
		t.Fatalf("retained %d ticks, want %d", got, DefaultTickLimit)
	}
	if rec.Dropped() != 1 {
		t.Fatalf("Dropped() = %d, want 1", rec.Dropped())
	}
	ticks := rec.Ticks()
	if first := ticks[0].Values[0]; first != 1 {
		t.Fatalf("oldest retained tick has value %g, want 1 (tick 0 evicted)", first)
	}
	if last := ticks[len(ticks)-1].Values[0]; last != float64(DefaultTickLimit) {
		t.Fatalf("newest tick has value %g, want %d", last, DefaultTickLimit)
	}
}
