package experiment

import (
	"fmt"

	"barbican/internal/core"
	"barbican/internal/link"
	"barbican/internal/measure"
	"barbican/internal/sim"
	"barbican/internal/stack"
)

// AppendixRFC2544 (APX1) runs the RFC 2544 §26.1 zero-loss throughput
// search the paper would have run if the methodology had applied
// directly (§4.1 explains why it could not on real hardware): highest
// loss-free frame rate per standard frame size, per device. It makes
// the paper's small-frame argument quantitative — a firewall that
// sustains 100 Mbps of 1518-byte frames can still be far below the
// medium's small-frame rate.
//
// Every (device, frame size) point is its own cold search and its own
// executor task, so a point depends on its scenario and seed alone.
func AppendixRFC2544(cfg Config) (*Table, error) {
	sizes := measure.RFC2544FrameSizes
	if cfg.Quick {
		sizes = []int{64, 1518}
	}
	type column struct {
		name   string
		device core.Device
		depth  int
	}
	columns := []column{
		{name: "Standard NIC", device: core.DeviceStandard, depth: 0},
		{name: "EFW 1", device: core.DeviceEFW, depth: 1},
		{name: "EFW 64", device: core.DeviceEFW, depth: 64},
		{name: "ADF 64", device: core.DeviceADF, depth: 64},
	}
	if cfg.Quick {
		columns = columns[:3:3]
	}

	results, err := sweep(cfg, rect(len(sizes), len(columns)), func(r, c int) (measure.ThroughputResult, error) {
		size, col := sizes[r], columns[c]
		res, err := rfc2544Point(cfg, col.device, col.depth, size)
		if err != nil {
			return res, fmt.Errorf("rfc2544 %s %d-byte: %w", col.name, size, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "Appendix APX1: RFC 2544 zero-loss throughput (frames/s) by frame size",
		Columns: []string{"Frame size"},
	}
	for _, c := range columns {
		t.Columns = append(t.Columns, c.name)
	}
	for r, size := range sizes {
		row := []string{fmt.Sprint(size)}
		for _, res := range results[r] {
			cell := fmt.Sprintf("%.0f", res.FramesPerSec)
			if res.LineRateLimited {
				cell += "*"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	footer := make([]string, len(t.Columns))
	footer[0] = "(* = line rate)"
	t.Rows = append(t.Rows, footer)
	return t, nil
}

func rfc2544Point(cfg Config, device core.Device, depth int, frameSize int) (measure.ThroughputResult, error) {
	tcfg := measure.ThroughputConfig{FrameSize: frameSize}
	var kernels []*sim.Kernel
	newPair := func() (*sim.Kernel, *stack.Host, *stack.Host, error) {
		tb, err := core.BuildTestbed(core.Scenario{Device: device, Depth: depth, FloodAllowed: true, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, nil, err
		}
		kernels = append(kernels, tb.Kernel)
		return tb.Kernel, tb.Client, tb.Target, nil
	}
	// Ethernet payload = frame minus header+FCS; the medium's maximum
	// frame rate for this size bounds the search.
	maxRate := link.MaxFrameRate(frameSize-18, link.Rate100Mbps)
	res, err := measure.ZeroLossThroughput(tcfg, maxRate, measure.HostThroughputTrial(tcfg, newPair))
	for _, k := range kernels {
		cfg.account(1, k.Now().Seconds(), k.WallBusy())
	}
	return res, err
}
