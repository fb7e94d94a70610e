// Command floodsim explores flood tolerance interactively: measure
// available bandwidth for one device/depth/flood-rate configuration,
// search for the minimum denial-of-service flood rate, or sweep a grid
// of configurations in parallel.
//
// Usage:
//
//	floodsim -device efw -depth 64 -rate 8000
//	floodsim -device adf -depth 64 -deny -search
//	floodsim -device adf -rate 12500 -metrics-out /tmp/m -trace-out /tmp/t -pcap /tmp/run.pcap
//	floodsim -device efw -depths 1,16,64 -rates 4000,8000,12500 -parallel 4
//	floodsim -device adf -rate 8000 -faults loss=0.05,corrupt=0.01,down=1s-1.5s -fault-seed 42
//
// With -faults a deterministic fault-injection plan (see
// internal/faults) is attached to the target's access link: seeded
// probabilistic frame loss, single-bit corruption, duplication,
// reordering, and scheduled link-down windows.
//
// With -metrics-out the run is recorded by the obs flight recorder and
// written in the same artifact formats as cmd/barbican: Prometheus
// text, JSON, and CSV timelines plus a final scrape-style snapshot.
//
// With -profile-out the run is profiled in both domains — card cost
// units attributed per NIC/phase/rule, and host wall time per kernel
// event handler — and written as gzipped pprof plus folded stacks
// (see barbican profile to summarize or diff them).
//
// With -pcap the client's wire is captured for the whole run and
// written as a pcap file. It combines freely with the artifact flags:
// every pillar attaches to the same run.
//
// With -depths and/or -rates the tool sweeps the cross product on
// -parallel workers. Each point owns a private simulation, and output
// is routed through an ordered collector: the lowest unfinished point
// streams live, later points buffer until their turn, so concurrent
// workers can never interleave partial lines and the output is
// byte-identical to a serial run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"barbican/internal/core"
	"barbican/internal/experiment"
	"barbican/internal/faults"
	"barbican/internal/runner"
	"barbican/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "floodsim:", err)
		os.Exit(1)
	}
}

func parseDevice(s string) (core.Device, error) {
	switch strings.ToLower(s) {
	case "standard", "none":
		return core.DeviceStandard, nil
	case "efw":
		return core.DeviceEFW, nil
	case "adf":
		return core.DeviceADF, nil
	case "vpg", "adf-vpg":
		return core.DeviceADFVPG, nil
	case "iptables":
		return core.DeviceIPTables, nil
	case "nextgen":
		return core.DeviceNextGen, nil
	default:
		return 0, fmt.Errorf("unknown device %q (standard|efw|adf|vpg|iptables|nextgen)", s)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("floodsim", flag.ContinueOnError)
	deviceName := fs.String("device", "efw", "firewall under test: standard|efw|adf|vpg|iptables|nextgen")
	depth := fs.Int("depth", 1, "rules (or VPGs) traversed before the action rule")
	rate := fs.Float64("rate", 0, "flood rate in packets/s (0 = no flood)")
	deny := fs.Bool("deny", false, "policy denies the flood packets instead of allowing them")
	fragment := fs.Bool("fragment", false, "split flood packets into IP fragments (evades port-based deny rules)")
	search := fs.Bool("search", false, "binary-search the minimum DoS flood rate")
	duration := fs.Duration("duration", 2*time.Second, "measurement window")
	seed := fs.Int64("seed", 0, "simulation seed (0 = 1)")
	faultSpec := fs.String("faults", "", `fault plan for the target's access link, e.g. "loss=0.05,corrupt=0.01,dup=0.02,reorder=0.05,down=1s-2s"`)
	faultSeed := fs.Int64("fault-seed", 0, "fault-injector seed (0 = simulation seed)")
	depthList := fs.String("depths", "", "comma-separated depth sweep (overrides -depth; enables sweep mode)")
	rateList := fs.String("rates", "", "comma-separated flood-rate sweep (overrides -rate; enables sweep mode)")
	parallel := fs.Int("parallel", 0, "sweep points measured concurrently (0 = GOMAXPROCS, 1 = serial)")
	pcapPath := fs.String("pcap", "", "write the target's wire traffic to this pcap file (single runs only)")
	var cfg experiment.Config
	cfg.ArtifactFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	device, err := parseDevice(*deviceName)
	if err != nil {
		return err
	}
	s := core.Scenario{
		Device:          device,
		Depth:           *depth,
		FloodRatePPS:    *rate,
		FloodAllowed:    !*deny,
		FloodFragmented: *fragment,
		Duration:        *duration,
		Seed:            *seed,
		FaultSeed:       *faultSeed,
	}
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		s.Faults = &plan
	}

	if *depthList != "" || *rateList != "" {
		if cfg.Observing() || *pcapPath != "" {
			return fmt.Errorf("-metrics-out, -trace-out, -profile-out, and -pcap apply to single runs only, not sweeps")
		}
		depths, err := parseInts(*depthList, *depth)
		if err != nil {
			return fmt.Errorf("-depths: %w", err)
		}
		rates, err := parseFloats(*rateList, *rate)
		if err != nil {
			return fmt.Errorf("-rates: %w", err)
		}
		return runSweep(s, depths, rates, *search, *parallel)
	}

	if *search {
		r, err := core.MinFloodRate(s)
		if err != nil {
			return err
		}
		fmt.Print(searchReport(s, r))
		return nil
	}

	if !cfg.Observing() && *pcapPath == "" {
		p, err := core.RunBandwidth(s)
		if err != nil {
			return err
		}
		fmt.Print(bandwidthReport(s, p))
		return nil
	}
	opt := cfg.ObserveOptions()
	opt.Capture = *pcapPath != ""
	p, inst, err := core.RunBandwidthObserved(s, opt)
	if err != nil {
		return err
	}
	base := fmt.Sprintf("floodsim_%s_depth-%d_rate-%.0f_%s", device, *depth, *rate, mode(!*deny))
	paths, err := cfg.WriteRunArtifacts("", base, p, inst)
	if err != nil {
		return err
	}
	for _, path := range paths {
		fmt.Println("wrote", path)
	}
	if *pcapPath != "" {
		if err := writePCAP(inst.Capture, *pcapPath); err != nil {
			return err
		}
	}
	fmt.Print(bandwidthReport(s, p))
	return nil
}

// searchReport renders a minimum-flood-rate search result in the tool's
// single-run format.
func searchReport(s core.Scenario, r core.MinFloodResult) string {
	if !r.Found {
		return fmt.Sprintf("%v depth=%d: no denial of service up to %d pps\n",
			s.Device, s.Depth, core.MaxSearchRatePPS)
	}
	note := ""
	if r.LockedUp {
		note = "  (card LOCKED UP — agent restart required, as the paper observed)"
	}
	return fmt.Sprintf("%v depth=%d flood-%s: minimum DoS flood rate ≈ %.0f pps (%d probes)%s\n",
		s.Device, s.Depth, mode(s.FloodAllowed), r.RatePPS, r.Probes, note)
}

// bandwidthReport renders a bandwidth point in the tool's single-run
// format.
func bandwidthReport(s core.Scenario, p core.BandwidthPoint) string {
	out := fmt.Sprintf("%v depth=%d flood=%.0f pps (%s): %.1f Mbps available\n",
		s.Device, s.Depth, s.FloodRatePPS, mode(s.FloodAllowed), p.Mbps())
	if p.TargetLocked {
		out += "target card LOCKED UP during the flood\n"
	}
	st := p.TargetNIC
	out += fmt.Sprintf("target card: rx %d frames (%d allowed, %d denied, %d overload-dropped), tx %d (%d overload-dropped)\n",
		st.RxFrames, st.RxAllowed, st.RxDenied, st.RxOverloadDrops, st.TxAllowed, st.TxOverloadDrops)
	return out
}

// runSweep measures the depths × rates cross product on the executor.
// Point-level output goes through an ordered collector, so concurrent
// workers never interleave partial lines and the byte stream matches a
// serial run of the same sweep. With -search each depth searches
// independently (rates are ignored; the search picks its own probes).
func runSweep(base core.Scenario, depths []int, rates []float64, search bool, parallel int) error {
	type point struct {
		s core.Scenario
	}
	var points []point
	for _, d := range depths {
		sc := base
		sc.Depth = d
		if search {
			points = append(points, point{s: sc})
			continue
		}
		for _, r := range rates {
			sr := sc
			sr.FloodRatePPS = r
			points = append(points, point{s: sr})
		}
	}

	col := runner.NewCollector(os.Stdout, len(points))
	start := time.Now()
	var simSecs float64
	var mu sync.Mutex
	_, err := runner.Map(runner.Pool{Workers: parallel}, len(points), func(i int) (struct{}, error) {
		defer col.Done(i)
		sc := points[i].s
		if search {
			r, err := core.MinFloodRate(sc)
			if err != nil {
				return struct{}{}, err
			}
			mu.Lock()
			simSecs += r.SimSeconds
			mu.Unlock()
			col.Printf(i, "%s", searchReport(sc, r))
			return struct{}{}, nil
		}
		p, err := core.RunBandwidth(sc)
		if err != nil {
			return struct{}{}, err
		}
		mu.Lock()
		simSecs += p.SimSeconds
		mu.Unlock()
		col.Printf(i, "%s", bandwidthReport(sc, p))
		return struct{}{}, nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	line := fmt.Sprintf("(%d points in %v wall clock", len(points), elapsed.Round(time.Millisecond))
	if elapsed > 0 {
		line += fmt.Sprintf(", %.1f sim-s/wall-s", simSecs/elapsed.Seconds())
	}
	fmt.Println(line + ")")
	return nil
}

// parseInts parses a comma-separated integer list; empty falls back to
// the single default.
func parseInts(list string, def int) ([]int, error) {
	if list == "" {
		return []int{def}, nil
	}
	var out []int
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated float list; empty falls back to
// the single default.
func parseFloats(list string, def float64) ([]float64, error) {
	if list == "" {
		return []float64{def}, nil
	}
	var out []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func mode(allowed bool) string {
	if allowed {
		return "allowed"
	}
	return "denied"
}

// writePCAP writes the run's client-wire capture to path.
func writePCAP(cap *trace.Capture, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cap.WritePCAP(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d captured frames to %s\n", cap.Len(), path)
	return nil
}
