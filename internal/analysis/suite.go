package analysis

// Suite returns the repository's analyzer set with its production
// configuration — the checks cmd/barbicanvet runs and CI enforces.
// The noalloc escape-analysis gate runs separately (NoAllocGate): it
// needs the compiler, not just the AST.
func Suite() []*Analyzer {
	return []*Analyzer{
		Walltime(DeterministicPackages),
		Seededrand(),
		Maporder(BarbicanSchedulers),
		Exhaustive(BarbicanEnums),
		Setterbypass(BarbicanSetters),
	}
}
