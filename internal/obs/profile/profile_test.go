package profile

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// funcPCForTest mirrors the sim kernel's funcPC: the pc it hands to
// BeginStep for a handler func value.
func funcPCForTest(fn any) uintptr { return reflect.ValueOf(fn).Pointer() }

func TestPhaseString(t *testing.T) {
	want := map[Phase]string{
		PhaseParse:      "parse",
		PhaseMatch:      "match",
		PhaseConntrack:  "conntrack",
		PhaseCryptoSeal: "crypto.seal",
		PhaseCryptoOpen: "crypto.open",
		PhaseVerdict:    "verdict",
		NumPhases:       "phase?",
	}
	for p, s := range want {
		if got := p.String(); got != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, got, s)
		}
	}
}

func TestDataAddMergeDeterminism(t *testing.T) {
	build := func() *Data {
		d := NewData(CostSampleTypes, "cost")
		d.Add([]string{"a", "b"}, 10, 1)
		d.Add([]string{"a", "c"}, 20, 2)
		d.Add([]string{"a", "b"}, 5, 1) // accumulate into existing
		return d
	}
	d := build()
	if len(d.Samples) != 2 {
		t.Fatalf("Samples = %d, want 2 (dedup by stack)", len(d.Samples))
	}
	if d.Samples[0].Values[0] != 15 || d.Samples[0].Values[1] != 2 {
		t.Fatalf("accumulated values = %v, want [15 2]", d.Samples[0].Values)
	}
	if d.Total() != 35 {
		t.Fatalf("Total = %d, want 35", d.Total())
	}

	// Same build sequence → byte-identical exports.
	var b1, b2 bytes.Buffer
	if err := build().WritePprof(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePprof(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical builds produced different pprof bytes")
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with wrong arity: want panic")
		}
	}()
	NewData(CostSampleTypes, "cost").Add([]string{"a"}, 1)
}

func testProfile() *Data {
	d := NewData(CostSampleTypes, "cost")
	d.Comments = append(d.Comments, "test profile")
	d.Period = 1
	d.PeriodType = ValueType{Type: "cost", Unit: "units"}
	d.Add([]string{"target (EFW)", "rx", "parse"}, 100, 50)
	d.Add([]string{"target (EFW)", "rx", "match", "rule 001: allow tcp"}, 250, 50)
	d.Add([]string{"target (EFW)", "rx", "crypto.open"}, 75, 10)
	d.Add([]string{"target (EFW)", "rx", "verdict", "default"}, 0, 3)
	return d
}

func TestPprofRoundTrip(t *testing.T) {
	d := testProfile()
	var buf bytes.Buffer
	if err := d.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	// gzip magic
	if b := buf.Bytes(); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatal("pprof output not gzipped")
	}
	got, err := ReadPprof(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertDataEqual(t, d, got)

	// Round-tripping again must be byte-stable.
	var buf2 bytes.Buffer
	if err := got.WritePprof(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("pprof encode(decode(encode)) not byte-identical")
	}
}

// TestWritePprofFileRoundTrip: ReadPprof loads what WritePprof wrote
// to a file, every value column intact.
func TestWritePprofFileRoundTrip(t *testing.T) {
	d := testProfile()
	f, err := os.Open(writeProfile(t, d, "p.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadPprof(f)
	if err != nil {
		t.Fatal(err)
	}
	assertDataEqual(t, d, got)
}

func TestKernelProfilerSampling(t *testing.T) {
	kp := NewKernelProfiler(4)
	if kp.SampleEvery() != 4 {
		t.Fatalf("SampleEvery = %d", kp.SampleEvery())
	}
	taken := 0
	for i := 0; i < 40; i++ {
		if kp.Take() {
			taken++
			kp.BeginStep(funcPCForTest(TestKernelProfilerSampling), time.Duration(i))
			kp.EndStep()
		}
	}
	if taken != 10 {
		t.Fatalf("took %d of 40 events at 1-in-4, want 10", taken)
	}
	if kp.Seen() != 40 {
		t.Fatalf("Seen = %d, want 40", kp.Seen())
	}
	sites := kp.Sites()
	if len(sites) != 1 || sites[0].Samples != 10 {
		t.Fatalf("sites = %+v, want one site with 10 samples", sites)
	}
	if !strings.Contains(sites[0].Name, "TestKernelProfilerSampling") {
		t.Errorf("site name = %q, want test symbol", sites[0].Name)
	}

	d := kp.Data()
	if d.DefaultType != "walltime" || d.Period != 4 {
		t.Fatalf("Data schema: default=%q period=%d", d.DefaultType, d.Period)
	}
	// Event counts scale by the sampling rate: 10 samples × 4.
	if len(d.Samples) != 1 || d.Samples[0].Values[0] != 40 {
		t.Fatalf("scaled events = %v, want 40", d.Samples)
	}
	// Stacks are [package path, symbol].
	if got := d.Samples[0].Stack[0]; got != "barbican/internal/obs/profile" {
		t.Errorf("package frame = %q", got)
	}
}

func TestKernelProfilerNesting(t *testing.T) {
	kp := NewKernelProfiler(1)
	pc := funcPCForTest(TestKernelProfilerNesting)
	kp.Take()
	kp.BeginStep(pc, 0)
	kp.Take()
	kp.BeginStep(pc, 0) // nested step (event callback drove the kernel)
	time.Sleep(time.Millisecond)
	kp.EndStep()
	kp.EndStep()
	// Unbalanced EndStep must be a no-op, not a panic.
	kp.EndStep()

	sites := kp.Sites()
	if len(sites) != 1 || sites[0].Samples != 2 {
		t.Fatalf("sites = %+v, want one site with 2 samples", sites)
	}
	if sites[0].Wall <= 0 {
		t.Errorf("outermost step recorded no wall time")
	}
}

func TestSplitSymbol(t *testing.T) {
	cases := []struct{ in, pkg, sym string }{
		{"barbican/internal/nic.(*NIC).finishPending-fm", "barbican/internal/nic", "(*NIC).finishPending-fm"},
		{"main.run", "main", "run"},
		{"nodots", "unknown", "nodots"},
	}
	for _, c := range cases {
		pkg, sym := splitSymbol(c.in)
		if pkg != c.pkg || sym != c.sym {
			t.Errorf("splitSymbol(%q) = (%q, %q), want (%q, %q)", c.in, pkg, sym, c.pkg, c.sym)
		}
	}
}

func assertDataEqual(t *testing.T, want, got *Data) {
	t.Helper()
	if len(got.SampleTypes) != len(want.SampleTypes) {
		t.Fatalf("SampleTypes = %v, want %v", got.SampleTypes, want.SampleTypes)
	}
	for i := range want.SampleTypes {
		if got.SampleTypes[i] != want.SampleTypes[i] {
			t.Fatalf("SampleTypes[%d] = %v, want %v", i, got.SampleTypes[i], want.SampleTypes[i])
		}
	}
	if got.DefaultType != want.DefaultType {
		t.Errorf("DefaultType = %q, want %q", got.DefaultType, want.DefaultType)
	}
	if got.Period != want.Period || got.PeriodType != want.PeriodType {
		t.Errorf("period = %d %v, want %d %v", got.Period, got.PeriodType, want.Period, want.PeriodType)
	}
	if len(got.Comments) != len(want.Comments) {
		t.Fatalf("Comments = %v, want %v", got.Comments, want.Comments)
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%d samples, want %d", len(got.Samples), len(want.Samples))
	}
	for i, ws := range want.Samples {
		gs := got.Samples[i]
		if stackKey(gs.Stack) != stackKey(ws.Stack) {
			t.Errorf("sample %d stack = %v, want %v", i, gs.Stack, ws.Stack)
		}
		for j := range ws.Values {
			if gs.Values[j] != ws.Values[j] {
				t.Errorf("sample %d values = %v, want %v", i, gs.Values, ws.Values)
			}
		}
	}
}
