// Command barbicanvet is the repository's multichecker: it runs the
// barbican-specific static analyzers from internal/analysis over the
// module and reports every finding in file:line:col form.
//
// Checks:
//
//	walltime   - no host-clock reads in deterministic packages
//	seededrand - no global math/rand functions outside tests
//	maporder   - no map-iteration order escaping into output or into calls handed a sim.Kernel / stack.Host
//	exhaustive - DropReason / fw ConnState / nic FailMode + MatchPath + DegradedState + StateRecovery / conntrack TCPState + EvictPolicy + CommitStatus / profile Phase / telemetry AlertState / sem FindingKind + RegionClass switches and tables cover every constant
//	setterbypass - nic.NIC's rules and ct fields are written only through setRules / setConntrack (flow-cache invalidation contract)
//	noalloc    - //barbican:noalloc functions stay free of heap escapes
//
// Usage:
//
//	go run ./cmd/barbicanvet ./...
//
// Flags:
//
//	-out FILE    also write findings to FILE (one per line), for CI artifacts
//	-noalloc     run the escape-analysis gate (default true; needs the go tool)
//
// Exit status: 0 when clean, 1 when any finding is reported, 2 on
// loader or tool errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"barbican/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	out := flag.String("out", "", "also write findings to this file, one per line")
	noalloc := flag.Bool("noalloc", true, "run the //barbican:noalloc escape-analysis gate")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: barbicanvet [-out file] [-noalloc=false] [./...]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "barbicanvet: %v\n", err)
		return 2
	}

	pkgs, err := analysis.NewLoader().LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "barbicanvet: load module: %v\n", err)
		return 2
	}
	pkgs = filterPackages(pkgs, root, flag.Args())
	if len(pkgs) == 0 {
		fmt.Fprintln(os.Stderr, "barbicanvet: no packages matched")
		return 2
	}

	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "barbicanvet: type error in %s: %v\n", p.ImportPath, terr)
		}
	}

	diags, err := analysis.Run(pkgs, analysis.Suite())
	if err != nil {
		fmt.Fprintf(os.Stderr, "barbicanvet: %v\n", err)
		return 2
	}

	if *noalloc {
		allocDiags, err := analysis.NoAllocGate(root, pkgs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "barbicanvet: noalloc gate: %v\n", err)
			return 2
		}
		diags = append(diags, allocDiags...)
	}

	var lines []string
	for _, d := range diags {
		lines = append(lines, relativize(root, d))
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if *out != "" {
		body := strings.Join(lines, "\n")
		if body != "" {
			body += "\n"
		}
		if err := os.WriteFile(*out, []byte(body), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "barbicanvet: write %s: %v\n", *out, err)
			return 2
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "barbicanvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// filterPackages narrows the module's package list to the requested
// patterns. "./..." (or no arguments) selects everything; "./dir/..."
// selects a subtree; "./dir" selects one directory.
func filterPackages(pkgs []*analysis.Package, root string, patterns []string) []*analysis.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	var keep []*analysis.Package
	for _, p := range pkgs {
		rel, err := filepath.Rel(root, p.Dir)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		for _, pat := range patterns {
			if matchPattern(rel, pat) {
				keep = append(keep, p)
				break
			}
		}
	}
	return keep
}

func matchPattern(rel, pat string) bool {
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	if pat == "..." || pat == "" {
		return true
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == sub || strings.HasPrefix(rel, sub+"/")
	}
	return rel == pat
}

// relativize renders a diagnostic with the file path relative to the
// module root so output is stable across machines.
func relativize(root string, d analysis.Diagnostic) string {
	if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d.String()
}
