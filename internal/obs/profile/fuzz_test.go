package profile

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"
)

// gzipped wraps a raw profile.proto image the way WritePprof does.
func gzipped(t testing.TB, raw []byte) []byte {
	var b bytes.Buffer
	gz := gzip.NewWriter(&b)
	if _, err := gz.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzReadProfile feeds arbitrary bytes to the profile decoder, as
// `barbican profile FILE` does: it may not panic, nor may the summary
// of whatever it accepts. A profile ReadPprof accepts must also
// survive the trip through WritePprof unchanged.
func FuzzReadProfile(f *testing.F) {
	// A bytes field whose varint length wraps negative as an int.
	f.Add(gzipped(f, []byte{0x32, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}))
	// A real card-cost profile (quick fig2, ADF with one VPG rule pair,
	// as -profile-out writes it), whole and truncated, gzipped and raw.
	image, err := os.ReadFile("testdata/fig2-adf-vpg-depth-1.cost.pprof")
	if err != nil {
		f.Fatal(err)
	}
	gz, err := gzip.NewReader(bytes.NewReader(image))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(image)
	for _, n := range []int{1, 2, 10, len(raw) / 3, len(raw) / 2, len(raw) - 1, len(raw)} {
		f.Add(raw[:n])
		f.Add(gzipped(f, raw[:n]))
	}
	f.Add(image[:len(image)/2])
	// A sample in a profile that declares no sample types.
	f.Add([]byte{0x10, 0x30})
	// A comment naming string index 48 of an empty table: "".
	f.Add([]byte("h0"))
	// Plain text, not a profile.
	f.Add([]byte("target (EFW);rx;match 42\nnocount\n"))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := ReadPprof(bytes.NewReader(b))
		if err != nil {
			return
		}
		_ = d.Summary(5)
		var img bytes.Buffer
		if err := d.WritePprof(&img); err != nil {
			t.Fatal(err)
		}
		again, err := ReadPprof(&img)
		if err != nil {
			t.Fatalf("re-reading a WritePprof image: %v", err)
		}
		assertDataEqual(t, d, again)
	})
}
