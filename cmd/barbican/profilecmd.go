package main

import (
	"flag"
	"fmt"
	"io"

	"barbican/internal/obs/profile"
)

// runProfileCmd implements `barbican profile`: summarize one profile
// written by -profile-out (top-N phases and stacks), or with -diff
// report per-phase and per-stack deltas between two. Profiles are the
// gzipped pprof files -profile-out writes. Like explain, the output is
// a pure function of the inputs.
func runProfileCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("barbican profile", flag.ContinueOnError)
	top := fs.Int("top", 20, "rows in the top-stacks table")
	diff := fs.Bool("diff", false, "diff two profiles: report per-phase and per-stack deltas of NEW against OLD")
	fs.SetOutput(w)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: barbican profile [flags] FILE        (summarize one profile)")
		fmt.Fprintln(fs.Output(), "       barbican profile -diff OLD NEW       (report per-phase deltas)")
		fmt.Fprintln(fs.Output(), "FILEs are .pprof profiles (gzipped profile.proto) as -profile-out writes them")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *diff {
		if fs.NArg() != 2 {
			fs.Usage()
			return fmt.Errorf("-diff needs exactly two profile files, got %d", fs.NArg())
		}
		oldD, err := profile.ReadProfileFile(fs.Arg(0))
		if err != nil {
			return fmt.Errorf("read %s: %w", fs.Arg(0), err)
		}
		newD, err := profile.ReadProfileFile(fs.Arg(1))
		if err != nil {
			return fmt.Errorf("read %s: %w", fs.Arg(1), err)
		}
		_, err = io.WriteString(w, profile.Diff(oldD, newD, *top))
		return err
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one profile file, got %d", fs.NArg())
	}
	d, err := profile.ReadProfileFile(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("read %s: %w", fs.Arg(0), err)
	}
	_, err = io.WriteString(w, d.Summary(*top))
	return err
}
