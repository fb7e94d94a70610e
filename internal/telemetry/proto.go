// Package telemetry is the in-band fleet-health plane: NIC agents
// periodically snapshot card health (per-reason drop counters, processor
// backlog, flow-cache hit ratio, degraded-mode state, rules version) and
// push compact reports over the simulated management network to a
// collector on the policy server. Reports share links with policy
// pushes, cost card CPU units like any other egress traffic, and are
// subject to fault plans — lost, late, and corrupt reports are a
// measured phenomenon, not an accident. The collector aggregates
// reports into a per-device fleet-health model and runs deterministic
// flood-onset detectors (EWMA baseline + threshold with hysteresis)
// whose alert-state transitions, recorded in virtual time, yield the
// two headline metrics: time-to-detect and window-of-exposure.
package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"barbican/internal/nic"
	"barbican/internal/obs/tracing"
)

// TelemetryPort is the collector's well-known UDP port on the policy
// server (the policy push channel is TCP 4747 next door).
const TelemetryPort = 4748

// Wire format: "BTL1" | uint16 bodyLen (BE) | body | uint64 FNV-1a(body).
//
// The checksum is integrity, not authenticity: telemetry is advisory
// (a forged report can at worst raise a false alert, never install
// policy), so unlike the BPL2 push channel it carries no MAC. What the
// checksum must catch is the fault plane's single-bit corruption — a
// flipped byte must never yield a silently-wrong report.
const (
	reportMagic   = "BTL1"
	headerLen     = 4 + 2 // magic + body length
	checksumLen   = 8
	maxDeviceName = 64
	maxReportSize = 1024
)

// Report decode errors.
var (
	ErrBadMagic    = errors.New("telemetry: bad magic")
	ErrBadChecksum = errors.New("telemetry: checksum mismatch")
	ErrTooLarge    = errors.New("telemetry: report too large")
	ErrTruncated   = errors.New("telemetry: truncated report")
)

// Report is one card-health snapshot, as carried on the wire. All
// timestamps are virtual time at the sender.
type Report struct {
	// Device is the reporting device's fleet name (the policy plane's
	// device name, not the hostname).
	Device string
	// Seq increments per report from one agent; the collector counts
	// gaps to measure telemetry loss.
	Seq uint32
	// SentAt is the snapshot's virtual time at the sender.
	SentAt time.Duration
	// RulesVersion is the installed policy version (0 = none/unknown).
	RulesVersion uint32

	// State is the card's policy-plane state and Locked the EFW
	// lockup. Mode is the current degraded episode's posture,
	// FailModeNone while the card is healthy; it keeps its byte even
	// where no card is ever degraded, because the report's length sets
	// its transfer time and with it the detection times runs report.
	State  nic.DegradedState
	Mode   nic.FailMode
	Locked bool

	// Backlog is the embedded processor's queued work, in time;
	// QueueDepth its descriptor-ring occupancy.
	Backlog    time.Duration
	QueueDepth uint32

	RxFrames  uint64
	RxAllowed uint64

	FlowHits   uint64
	FlowMisses uint64

	// Conntrack table occupancy (all zero on stateless cards).
	// CTEntries over CTCapacity is the occupancy ratio the collector's
	// detectors watch for state-exhaustion floods; CTEvictions is the
	// cumulative displaced-entry count, whose rate is the flood's
	// steady-state signature once the table is pinned full.
	CTEntries   uint32
	CTCapacity  uint32
	CTEvictions uint64

	// RxDrops and TxDrops are the card's always-on per-reason drop
	// counters, indexed by tracing.DropReason.
	RxDrops [tracing.NumDropReasons]uint64
	TxDrops [tracing.NumDropReasons]uint64
}

// CTOccupancy returns the state-table fill ratio (0 on stateless
// cards).
func (r *Report) CTOccupancy() float64 {
	if r.CTCapacity == 0 {
		return 0
	}
	return float64(r.CTEntries) / float64(r.CTCapacity)
}

// RxDropTotal sums the ingress drop counters — the detector's primary
// flood signal.
func (r *Report) RxDropTotal() uint64 {
	var total uint64
	for i := range r.RxDrops {
		total += r.RxDrops[i]
	}
	return total
}

// checksum is 64-bit FNV-1a, inlined so the encode path needs no
// hash.Hash allocation.
func checksum(b []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// AppendReport appends the report's wire image to dst and returns the
// extended slice. Pure appends into the caller's scratch: the agent's
// steady-state encode path is allocation-free once the scratch has
// grown to report size.
//
//barbican:noalloc
func AppendReport(dst []byte, r *Report) []byte {
	start := len(dst)
	dst = append(dst, reportMagic...)
	dst = binary.BigEndian.AppendUint16(dst, 0) // body length, patched below
	bodyStart := len(dst)

	name := r.Device
	if len(name) > maxDeviceName {
		name = name[:maxDeviceName]
	}
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.SentAt))
	dst = binary.BigEndian.AppendUint32(dst, r.RulesVersion)
	dst = append(dst, byte(r.State), byte(r.Mode), boolByte(r.Locked))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Backlog))
	dst = binary.BigEndian.AppendUint32(dst, r.QueueDepth)
	dst = binary.BigEndian.AppendUint64(dst, r.RxFrames)
	dst = binary.BigEndian.AppendUint64(dst, r.RxAllowed)
	dst = binary.BigEndian.AppendUint64(dst, r.FlowHits)
	dst = binary.BigEndian.AppendUint64(dst, r.FlowMisses)
	dst = binary.BigEndian.AppendUint32(dst, r.CTEntries)
	dst = binary.BigEndian.AppendUint32(dst, r.CTCapacity)
	dst = binary.BigEndian.AppendUint64(dst, r.CTEvictions)
	dst = append(dst, byte(tracing.NumDropReasons))
	for i := range r.RxDrops {
		dst = binary.BigEndian.AppendUint64(dst, r.RxDrops[i])
	}
	for i := range r.TxDrops {
		dst = binary.BigEndian.AppendUint64(dst, r.TxDrops[i])
	}

	body := dst[bodyStart:]
	binary.BigEndian.PutUint16(dst[start+4:], uint16(len(body)))
	return binary.BigEndian.AppendUint64(dst, checksum(body))
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// DecodeReport decodes one wire image. Like policy.decodePush it
// returns (nil, 0, nil) when buf is a plausible prefix that needs more
// bytes, (report, consumed, nil) on success, and a non-nil error for
// anything structurally wrong. It must never panic and never return a
// silently-wrong report: the body checksum shields every field against
// the fault plane's bit flips.
func DecodeReport(buf []byte) (*Report, int, error) {
	if len(buf) < headerLen {
		return nil, 0, nil
	}
	if string(buf[:4]) != reportMagic {
		return nil, 0, ErrBadMagic
	}
	bodyLen := int(binary.BigEndian.Uint16(buf[4:]))
	if bodyLen > maxReportSize {
		return nil, 0, ErrTooLarge
	}
	total := headerLen + bodyLen + checksumLen
	if len(buf) < total {
		return nil, 0, nil
	}
	body := buf[headerLen : headerLen+bodyLen]
	want := binary.BigEndian.Uint64(buf[headerLen+bodyLen:])
	if checksum(body) != want {
		return nil, 0, ErrBadChecksum
	}
	r, err := parseReportBody(body)
	if err != nil {
		return nil, 0, err
	}
	return r, total, nil
}

// parseReportBody parses a checksum-verified body. Every read is
// bounds-checked through take, so a structurally corrupt body (which
// the checksum normally shields) errors instead of panicking — defense
// in depth, same contract as the policy plane's parseBody.
func parseReportBody(body []byte) (*Report, error) {
	rest := body
	take := func(n int) ([]byte, error) {
		if len(rest) < n {
			return nil, ErrTruncated
		}
		b := rest[:n]
		rest = rest[n:]
		return b, nil
	}

	nb, err := take(1)
	if err != nil {
		return nil, err
	}
	nameLen := int(nb[0])
	if nameLen == 0 || nameLen > maxDeviceName {
		return nil, fmt.Errorf("telemetry: bad device name length %d", nameLen)
	}
	name, err := take(nameLen)
	if err != nil {
		return nil, err
	}
	r := &Report{Device: string(name)}

	fixed, err := take(4 + 8 + 4 + 3 + 8 + 4 + 8*4 + 4 + 4 + 8 + 1)
	if err != nil {
		return nil, err
	}
	r.Seq = binary.BigEndian.Uint32(fixed[0:])
	r.SentAt = time.Duration(binary.BigEndian.Uint64(fixed[4:]))
	r.RulesVersion = binary.BigEndian.Uint32(fixed[12:])
	r.State = nic.DegradedState(fixed[16])
	r.Mode = nic.FailMode(fixed[17])
	r.Locked = fixed[18] != 0
	r.Backlog = time.Duration(binary.BigEndian.Uint64(fixed[19:]))
	r.QueueDepth = binary.BigEndian.Uint32(fixed[27:])
	r.RxFrames = binary.BigEndian.Uint64(fixed[31:])
	r.RxAllowed = binary.BigEndian.Uint64(fixed[39:])
	r.FlowHits = binary.BigEndian.Uint64(fixed[47:])
	r.FlowMisses = binary.BigEndian.Uint64(fixed[55:])
	r.CTEntries = binary.BigEndian.Uint32(fixed[63:])
	r.CTCapacity = binary.BigEndian.Uint32(fixed[67:])
	r.CTEvictions = binary.BigEndian.Uint64(fixed[71:])
	if reasons := int(fixed[79]); reasons != int(tracing.NumDropReasons) {
		return nil, fmt.Errorf("telemetry: report carries %d drop reasons, want %d", reasons, tracing.NumDropReasons)
	}
	if r.State >= nic.NumDegradedStates || r.Mode >= nic.NumFailModes {
		return nil, fmt.Errorf("telemetry: bad state %d / mode %d", r.State, r.Mode)
	}
	for i := range r.RxDrops {
		b, err := take(8)
		if err != nil {
			return nil, err
		}
		r.RxDrops[i] = binary.BigEndian.Uint64(b)
	}
	for i := range r.TxDrops {
		b, err := take(8)
		if err != nil {
			return nil, err
		}
		r.TxDrops[i] = binary.BigEndian.Uint64(b)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("telemetry: %d trailing bytes after report body", len(rest))
	}
	return r, nil
}
