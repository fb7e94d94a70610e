package telemetry

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"barbican/internal/nic"
	"barbican/internal/obs/tracing"
)

// sampleReport exercises every field of the wire format: non-zero
// counters in every slot, a degraded state, and a fail mode.
func sampleReport() *Report {
	r := &Report{
		Device:       "target",
		Seq:          42,
		SentAt:       1500 * time.Millisecond,
		RulesVersion: 7,
		State:        nic.StateDegraded,
		Mode:         nic.FailModeClosed,
		Locked:       true,
		Backlog:      750 * time.Microsecond,
		QueueDepth:   33,
		RxFrames:     123456,
		RxAllowed:    100000,
		FlowHits:     90000,
		FlowMisses:   10000,
		CTEntries:    1000,
		CTCapacity:   1024,
		CTEvictions:  555,
	}
	for i := range r.RxDrops {
		r.RxDrops[i] = uint64(1000 + i)
		r.TxDrops[i] = uint64(i)
	}
	return r
}

func TestReportRoundTrip(t *testing.T) {
	want := sampleReport()
	wire := AppendReport(nil, want)
	got, n, err := DecodeReport(wire)
	if err != nil || got == nil {
		t.Fatalf("decode: report=%v err=%v", got, err)
	}
	if n != len(wire) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(wire))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Appending to a prefilled buffer must leave the prefix intact.
	prefixed := AppendReport([]byte("xyz"), want)
	if !bytes.Equal(prefixed[:3], []byte("xyz")) || !bytes.Equal(prefixed[3:], wire) {
		t.Fatal("AppendReport disturbed the destination prefix")
	}
}

// TestAppendReportNoAlloc: snapshot encoding into a warm scratch buffer
// is on the agent's per-tick path and must not allocate.
func TestAppendReportNoAlloc(t *testing.T) {
	r := sampleReport()
	scratch := make([]byte, 0, maxReportSize)
	if allocs := testing.AllocsPerRun(100, func() {
		scratch = AppendReport(scratch[:0], r)
	}); allocs != 0 {
		t.Fatalf("AppendReport into warm scratch allocated %.1f/op, want 0", allocs)
	}
}

// TestDecodeReportTruncationSweep: every strict prefix of a valid wire
// image must decode to "need more bytes" or an error — never a report,
// never a panic. This is what the fault plane's truncation leaves in a
// datagram.
func TestDecodeReportTruncationSweep(t *testing.T) {
	wire := AppendReport(nil, sampleReport())
	for cut := 0; cut < len(wire); cut++ {
		r, _, err := DecodeReport(wire[:cut])
		if r != nil {
			t.Fatalf("prefix of %d/%d bytes decoded to a report", cut, len(wire))
		}
		// Short prefixes legitimately report "need more"; what matters
		// is no panic and no report.
		_ = err
	}
}

// TestDecodeReportBitFlipSweep: single-byte corruptions must never
// panic and never yield an accepted report. Flips outside the length
// field must error outright (magic or checksum); length-field flips
// may instead look like an incomplete longer report, but shrunk
// lengths must fail the checksum.
func TestDecodeReportBitFlipSweep(t *testing.T) {
	wire := AppendReport(nil, sampleReport())
	for i := 0; i < len(wire); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), wire...)
			mut[i] ^= flip
			r, _, err := DecodeReport(mut)
			if r != nil {
				t.Fatalf("flip 0x%02x at byte %d decoded to a report", flip, i)
			}
			lengthField := i >= 4 && i < headerLen
			if !lengthField && err == nil {
				t.Fatalf("flip 0x%02x at byte %d returned no error", flip, i)
			}
			if lengthField && err == nil {
				if n := int(mut[4])<<8 | int(mut[5]); n <= len(wire)-headerLen-checksumLen {
					t.Fatalf("flip 0x%02x at byte %d shrank the length yet decoded cleanly", flip, i)
				}
			}
		}
	}
}

// TestParseReportBodyPrefixSweep: the body parser must hold the line
// on every strict prefix even though the checksum normally shields it
// — defense in depth, same contract as the policy plane's parseBody.
func TestParseReportBodyPrefixSweep(t *testing.T) {
	wire := AppendReport(nil, sampleReport())
	body := wire[headerLen : len(wire)-checksumLen]
	if _, err := parseReportBody(body); err != nil {
		t.Fatalf("baseline parseReportBody failed: %v", err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := parseReportBody(body[:cut]); err == nil {
			t.Fatalf("parseReportBody accepted a %d/%d-byte prefix", cut, len(body))
		}
	}
}

// TestParseReportBodyByteFlipNeverPanics: arbitrary single-byte
// corruption of the body must never panic the parser.
func TestParseReportBodyByteFlipNeverPanics(t *testing.T) {
	wire := AppendReport(nil, sampleReport())
	body := wire[headerLen : len(wire)-checksumLen]
	for i := 0; i < len(body); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), body...)
			mut[i] ^= flip
			_, _ = parseReportBody(mut)
		}
	}
}

// TestDecodeReportRejects: structural junk beyond bit flips.
func TestDecodeReportRejects(t *testing.T) {
	wire := AppendReport(nil, sampleReport())

	if _, _, err := DecodeReport([]byte("NOPE?!")); err != ErrBadMagic {
		t.Errorf("bad magic: err=%v, want ErrBadMagic", err)
	}

	big := append([]byte(nil), wire...)
	big[4], big[5] = 0xff, 0xff // bodyLen 65535 > maxReportSize
	if _, _, err := DecodeReport(big); err != ErrTooLarge {
		t.Errorf("oversize length: err=%v, want ErrTooLarge", err)
	}

	trailing := append(append([]byte(nil), wire...), 0xAA)
	r, n, err := DecodeReport(trailing)
	if err != nil || r == nil || n != len(wire) {
		t.Errorf("trailing byte: report=%v n=%d err=%v (framing should stop at the checksum)", r, n, err)
	}

	// A report claiming a different drop-reason count is a version
	// mismatch, not silently-partial data.
	mismatched := sampleReport()
	raw := AppendReport(nil, mismatched)
	body := append([]byte(nil), raw[headerLen:len(raw)-checksumLen]...)
	reasonOff := 1 + len(mismatched.Device) + 4 + 8 + 4 + 3 + 8 + 4 + 8*4 + 4 + 4 + 8
	body[reasonOff] = byte(tracing.NumDropReasons) + 1
	reframed := AppendReport(nil, mismatched)[:headerLen]
	reframed = append(reframed[:headerLen], body...)
	reframed = binary.BigEndian.AppendUint64(reframed, checksum(body))
	if _, _, err := DecodeReport(reframed); err == nil {
		t.Error("mismatched drop-reason count decoded cleanly")
	}

	// Out-of-range enum values must be rejected even with a valid
	// checksum (a malicious or future-version sender).
	badState := sampleReport()
	badState.State = nic.NumDegradedStates
	if _, _, err := DecodeReport(AppendReport(nil, badState)); err == nil {
		t.Error("out-of-range degraded state decoded cleanly")
	}
}
