package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"barbican/internal/core"
	"barbican/internal/experiment"
	"barbican/internal/faults"
)

// runFlood implements `barbican flood`: one device's available
// bandwidth at every depth × flood rate, or with -search its minimum
// denial-of-service flood rate at every depth. Points run on the
// experiment executor and print in declaration order, so the output is
// byte-identical at any -parallel.
func runFlood(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("barbican flood", flag.ContinueOnError)
	device := fs.String("device", "efw", "firewall under test: "+core.DeviceNames())
	depthList := fs.String("depth", "1", "rules (or VPGs) traversed before the action rule; a comma list sweeps")
	rateList := fs.String("rate", "0", "flood rate in packets/s (0 = no flood); a comma list sweeps")
	deny := fs.Bool("deny", false, "policy denies the flood packets instead of allowing them")
	fragment := fs.Bool("fragment", false, "split flood packets into IP fragments (evades port-based deny rules)")
	search := fs.Bool("search", false, "binary-search the minimum DoS flood rate at each depth (ignores -rate and the artifact flags)")
	faultSpec := fs.String("faults", "", `data-plane fault plan for the target's access link, e.g. "loss=0.05,corrupt=0.01,dup=0.02,reorder=0.05,down=1s-2s"`)
	var cfg experiment.Config
	sharedFlags(fs, &cfg)
	fs.SetOutput(w)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: barbican flood [flags]")
		fmt.Fprintln(fs.Output(), "measure one device's available bandwidth over depths × flood rates (2s window by default)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	dev, err := core.ParseDevice(*device)
	if err != nil {
		return err
	}
	sweep := experiment.FloodSweep{
		Base:   core.Scenario{Device: dev, FloodAllowed: !*deny, FloodFragmented: *fragment},
		Search: *search,
	}
	if sweep.Depths, err = parseList(*depthList, strconv.Atoi); err != nil {
		return fmt.Errorf("-depth: %w", err)
	}
	parseRate := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
	if sweep.Rates, err = parseList(*rateList, parseRate); err != nil {
		return fmt.Errorf("-rate: %w", err)
	}
	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		sweep.Base.Faults = &plan
	}
	return runExperiments(w, cfg, []experiment.Experiment{sweep.Experiment()})
}

// parseList parses a comma-separated list of values.
func parseList[T any](list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
