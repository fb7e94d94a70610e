package profile

import (
	"bytes"
	"os"
	"path/filepath"
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

func TestDirProfileRecord(t *testing.T) {
	var d DirProfile
	d.record(3, 2, 1.0, 0.6, 0)   // matched rule 2 after 3 traversals, no crypto
	d.record(3, 0, 1.0, 0.6, 0)   // default action after full walk
	d.record(1, 1, 1.0, 0.2, 2.5) // matched rule 1, paid crypto
	d.record(0, -1, 1.0, 0, 0)    // no policy: no walk, matched clamped to 0

	if d.Packets != 4 {
		t.Fatalf("Packets = %d, want 4", d.Packets)
	}
	if d.CryptoPkts != 1 || d.CryptoUnits != 2.5 {
		t.Fatalf("crypto = (%d pkts, %g units), want (1, 2.5)", d.CryptoPkts, d.CryptoUnits)
	}
	if got := d.Units(); got != 4*1.0+1.4+2.5 {
		t.Fatalf("Units() = %g, want %g", got, 4*1.0+1.4+2.5)
	}
	wantWalks := []uint64{1, 1, 0, 2}
	for i, w := range wantWalks {
		if d.Walks[i] != w {
			t.Errorf("Walks[%d] = %d, want %d", i, d.Walks[i], w)
		}
	}
	wantHits := []uint64{2, 1, 1}
	for i, h := range wantHits {
		if d.Hits[i] != h {
			t.Errorf("Hits[%d] = %d, want %d", i, d.Hits[i], h)
		}
	}
}

// TestAppendCostSamplesAttribution checks the per-rule suffix-sum
// reconstruction: rule i's match samples must count every packet that
// traversed at least i rules, and the attributed units must reconcile
// exactly with the profiler's running totals.
func TestAppendCostSamplesAttribution(t *testing.T) {
	cp := NewCardProfiler("target", "EFW", 0.5)
	cp.RuleText = func(i int) string {
		if i == 2 {
			return "allow tcp; dst 10.0.0.1" // ";" must be sanitized
		}
		return ""
	}
	// 10 packets stop at rule 1, 5 walk to rule 3, 2 walk all 4 rules
	// to the default action.
	for i := 0; i < 10; i++ {
		cp.RecordRx(1, 1, 1, 0.5, 0)
	}
	for i := 0; i < 5; i++ {
		cp.RecordRx(3, 3, 1, 1.5, 0)
	}
	for i := 0; i < 2; i++ {
		cp.RecordRx(4, 0, 1, 2.0, 0)
	}
	cp.RecordTx(2, 2, 1, 1.0, 3.0)

	d := NewData(CostSampleTypes, "cost")
	cp.AppendCostSamples(d)

	find := func(stack ...string) *Sample {
		t.Helper()
		key := stackKey(stack)
		for _, s := range d.Samples {
			if stackKey(s.Stack) == key {
				return s
			}
		}
		t.Fatalf("no sample with stack %v in %d samples", stack, len(d.Samples))
		return nil
	}

	// Rule 1 examined by all 17 rx packets, rule 3 by 7, rule 4 by 2.
	card := "target (EFW)"
	if s := find(card, "rx", "match", "rule 001"); s.Values[1] != 17 || s.Values[0] != round(0.5*17) {
		t.Errorf("rule 1: values = %v, want [%d 17]", s.Values, round(0.5*17))
	}
	if s := find(card, "rx", "match", "rule 003"); s.Values[1] != 7 {
		t.Errorf("rule 3: packets = %d, want 7", s.Values[1])
	}
	if s := find(card, "rx", "match", "rule 004"); s.Values[1] != 2 {
		t.Errorf("rule 4: packets = %d, want 2", s.Values[1])
	}
	// Rule 2's frame carries sanitized DSL text.
	s2 := find(card, "rx", "match", "rule 002: allow tcp, dst 10.0.0.1")
	if s2.Values[1] != 7 {
		t.Errorf("rule 2: packets = %d, want 7", s2.Values[1])
	}
	// Verdict samples: 15 matched packets across rules, 2 defaults.
	if s := find(card, "rx", "verdict", "default"); s.Values[1] != 2 {
		t.Errorf("default verdicts = %d, want 2", s.Values[1])
	}
	// Crypto only on tx (seal).
	if s := find(card, "tx", "crypto.seal"); s.Values[0] != 3 || s.Values[1] != 1 {
		t.Errorf("crypto.seal values = %v, want [3 1]", s.Values)
	}

	// Exact reconciliation: profile total == profiler unit total.
	// round() is applied per-sample, so allow the per-sample rounding
	// slack (< 1 unit per sample).
	total := d.Total()
	units := cp.Units()
	if diff := float64(total) - units; diff > float64(len(d.Samples)) || diff < -float64(len(d.Samples)) {
		t.Errorf("profile total %d vs profiler units %g: outside rounding slack", total, units)
	}
	for _, s := range d.Samples {
		if strings.Contains(strings.Join(s.Stack, ""), ";") {
			t.Errorf("frame contains reserved ';': %v", s.Stack)
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

	other := NewData(CostSampleTypes, "cost")
	other.Add([]string{"a", "c"}, 1, 1)
	other.Add([]string{"z"}, 100, 7)
	other.Comments = []string{"note"}
	if err := d.Merge(other); err != nil {
		t.Fatal(err)
	}
	if err := d.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if len(d.Samples) != 3 || d.Samples[2].Stack[0] != "z" {
		t.Fatalf("merge order broken: %d samples", len(d.Samples))
	}
	if d.Samples[1].Values[0] != 21 {
		t.Fatalf("merged a;c = %v, want 21", d.Samples[1].Values)
	}
	if len(d.Comments) != 1 || d.Comments[0] != "note" {
		t.Fatalf("comments = %v", d.Comments)
	}
	// Merging the same comment again must not duplicate it.
	if err := d.Merge(other); err != nil {
		t.Fatal(err)
	}
	if len(d.Comments) != 1 {
		t.Fatalf("comment deduped: %v", d.Comments)
	}

	// Schema mismatch is an error, not silent corruption.
	bad := NewData(KernelSampleTypes, "walltime")
	bad.Add([]string{"x"}, 1, 1)
	if err := d.Merge(bad); err == nil {
		t.Fatal("Merge with mismatched schema: want error")
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

// TestWritePprofFileRoundTrip: ReadPprof loads what WritePprofFile
// wrote, every value column intact.
func TestWritePprofFileRoundTrip(t *testing.T) {
	d := testProfile()
	path := filepath.Join(t.TempDir(), "p.pprof")
	if err := d.WritePprofFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
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
