package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"barbican/internal/sim"
)

func TestRegistryGatherOrderAndValues(t *testing.T) {
	reg := NewRegistry()
	var a, b float64
	reg.MustRegisterFunc("aaa_total", "first", KindCounter, func() float64 { return a })
	reg.MustRegisterFunc("bbb", "second", KindGauge, func() float64 { return b }, L("host", "target"))
	a, b = 3, 7

	got := reg.Gather()
	if len(got) != 2 || reg.Len() != 2 {
		t.Fatalf("gathered %d series, want 2", len(got))
	}
	if got[0].ID != "aaa_total" || got[0].Value != 3 {
		t.Errorf("series 0 = %q %v", got[0].ID, got[0].Value)
	}
	if got[1].ID != `bbb{host="target"}` || got[1].Value != 7 {
		t.Errorf("series 1 = %q %v", got[1].ID, got[1].Value)
	}
	if got[1].Kind != KindGauge || got[1].Kind.String() != "gauge" {
		t.Errorf("series 1 kind = %v", got[1].Kind)
	}
}

func TestRegistryLabelOrderCanonical(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegisterFunc("m", "", KindGauge, func() float64 { return 0 },
		L("zeta", "1"), L("alpha", "2"))
	id := reg.Infos()[0].ID
	if id != `m{alpha="2",zeta="1"}` {
		t.Errorf("id = %q, want sorted-key label order", id)
	}
}

func TestRegistryRejectsDuplicatesAndBadArgs(t *testing.T) {
	reg := NewRegistry()
	read := func() float64 { return 0 }
	if err := reg.RegisterFunc("dup", "", KindCounter, read, L("a", "b")); err != nil {
		t.Fatal(err)
	}
	// Same identity under a different label ordering must collide.
	if err := reg.RegisterFunc("dup", "", KindCounter, read, L("a", "b")); err == nil {
		t.Error("duplicate series accepted")
	}
	if err := reg.RegisterFunc("", "", KindCounter, read); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.RegisterFunc("nilread", "", KindCounter, nil); err == nil {
		t.Error("nil read func accepted")
	}
}

func TestRecorderTicksAndRate(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	var bytesSent float64
	reg.MustRegisterFunc("tx_bytes_total", "", KindCounter, func() float64 { return bytesSent })

	rec := NewRecorder(k, reg, 100*time.Millisecond)
	rec.Start()
	// 1000 bytes every 100ms → rate 10 kB/s.
	for i := 1; i <= 5; i++ {
		k.After(time.Duration(i)*100*time.Millisecond-time.Millisecond, func() { bytesSent += 1000 })
	}
	if err := k.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Stop()

	ticks := rec.Ticks()
	if len(ticks) != 6 { // t=0 plus 5 periodic ticks
		t.Fatalf("ticks = %d, want 6", len(ticks))
	}
	if ticks[0].At != 0 || ticks[5].At != 500*time.Millisecond {
		t.Errorf("tick times %v .. %v", ticks[0].At, ticks[5].At)
	}

	sd, ok := rec.Series("tx_bytes_total")
	if !ok {
		t.Fatal("series not found")
	}
	rate := sd.Rate()
	if len(rate) != 5 {
		t.Fatalf("rate points = %d, want 5", len(rate))
	}
	for _, p := range rate {
		if math.Abs(p.V-10000) > 1e-6 {
			t.Errorf("rate at %v = %v, want 10000", p.T, p.V)
		}
	}

	if _, ok := rec.Series("no_such_series"); ok {
		t.Error("lookup of unknown series succeeded")
	}
	// Stop must cancel the pending tick: running further adds nothing.
	k.After(time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Ticks()) != 6 {
		t.Errorf("ticks after Stop = %d, want still 6", len(rec.Ticks()))
	}
}

func TestRecorderLateRegistration(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	reg.MustRegisterFunc("early", "", KindGauge, func() float64 { return 1 })
	rec := NewRecorder(k, reg, 100*time.Millisecond)
	rec.Start()
	k.After(150*time.Millisecond, func() {
		reg.MustRegisterFunc("late", "", KindGauge, func() float64 { return 2 })
	})
	if err := k.RunUntil(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Stop()

	early, _ := rec.Series("early")
	late, ok := rec.Series("late")
	if !ok {
		t.Fatal("late series not found")
	}
	if len(early.Points) != 4 {
		t.Errorf("early points = %d, want 4", len(early.Points))
	}
	// Ticks at 0 and 100ms predate the late registration.
	if len(late.Points) != 2 {
		t.Errorf("late points = %d, want 2", len(late.Points))
	}
	for _, p := range late.Points {
		if p.T < 150*time.Millisecond {
			t.Errorf("late series has a point at %v, before registration", p.T)
		}
	}
}

func TestPublishKernel(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	PublishKernel(reg, k)
	k.After(time.Second, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, sv := range reg.Gather() {
		got[sv.ID] = sv.Value
	}
	if got["sim_events_executed_total"] != 1 {
		t.Errorf("events executed = %v, want 1", got["sim_events_executed_total"])
	}
	if got["sim_virtual_time_seconds"] != 1 {
		t.Errorf("virtual time = %v, want 1", got["sim_virtual_time_seconds"])
	}
	if _, ok := got["sim_wall_busy_seconds"]; !ok {
		t.Error("wall busy time not registered")
	}
}

func TestPromTextGroupsInterleavedFamilies(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegisterFunc("f_total", "fam f", KindCounter, func() float64 { return 1 }, L("host", "a"))
	reg.MustRegisterFunc("g_total", "fam g", KindCounter, func() float64 { return 2 }, L("host", "a"))
	// Same family again, registered non-adjacently.
	reg.MustRegisterFunc("f_total", "fam f", KindCounter, func() float64 { return 3 }, L("host", "b"))

	var buf bytes.Buffer
	if err := reg.WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE f_total counter"); n != 1 {
		t.Errorf("TYPE f_total appears %d times:\n%s", n, out)
	}
	// Both f series must sit under the single f TYPE header, before g's.
	typeG := strings.Index(out, "# TYPE g_total")
	fb := strings.Index(out, `f_total{host="b"} 3`)
	if fb < 0 || typeG < 0 || fb > typeG {
		t.Errorf("f series not grouped before g family:\n%s", out)
	}
	if !strings.Contains(out, "# HELP f_total fam f\n") {
		t.Errorf("missing HELP line:\n%s", out)
	}
}

func TestRecorderExportFormats(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	var c float64
	reg.MustRegisterFunc("c_total", "counts", KindCounter, func() float64 { return c })
	reg.MustRegisterFunc("lvl", "level", KindGauge, func() float64 { return 5 })
	rec := NewRecorder(k, reg, 100*time.Millisecond)
	rec.Start()
	k.After(50*time.Millisecond, func() { c = 10 })
	if err := k.RunUntil(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	rec.Stop()

	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if lines[0] != "time_s,c_total,lvl,rate:c_total" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) != 4 { // header + ticks at 0, 100ms, 200ms
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv.String())
	}
	// Tick at 100ms: c jumped 0→10 over 0.1s → rate 100.
	if !strings.HasPrefix(lines[2], "0.100000,10,5,100") {
		t.Errorf("csv row 2 = %q", lines[2])
	}
}

// TestWriteRunArtifacts: the two encoders a run's telemetry artifacts
// are written with produce the recorded timeline (a header and one row
// per sample) and the final snapshot (with HELP and TYPE).
func TestWriteRunArtifacts(t *testing.T) {
	k := sim.NewKernel()
	reg := NewRegistry()
	reg.MustRegisterFunc("x", "one gauge", KindGauge, func() float64 { return 1 })
	rec := NewRecorder(k, reg, 0)
	if rec.Every() != DefaultSampleEvery {
		t.Errorf("default every = %v", rec.Every())
	}
	rec.Sample()

	var timeline, snapshot bytes.Buffer
	if err := rec.WriteCSV(&timeline); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(timeline.String()), "\n"); len(lines) != 2 || !strings.HasSuffix(lines[0], ",x") {
		t.Errorf("timeline = %q, want a header ending in x and one row", timeline.String())
	}
	if err := reg.WritePromText(&snapshot); err != nil {
		t.Fatal(err)
	}
	if want := "# HELP x one gauge\n# TYPE x gauge\nx 1\n"; snapshot.String() != want {
		t.Errorf("snapshot = %q, want %q", snapshot.String(), want)
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"ADF":              "adf",
		"3Com EFW (v2)":    "3com_efw_v2",
		"a/b c":            "a_b_c",
		"depth-64_rate-12": "depth-64_rate-12",
		"ADF (VPG)_rate-0": "adf_vpg_rate-0",
		"a__b":             "a_b",
		"???":              "run",
		"":                 "run",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
