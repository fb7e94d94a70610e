package experiment

// Experiment is one experiment the barbican command runs by name: an
// ordered list of parts, printed one after another.
type Experiment struct {
	Name  string
	Parts []Part
}

// Part is one piece of an experiment's output. Exactly one of Figure,
// Table and Text is set.
type Part struct {
	// Name names the part's data exports:
	// <Name>.figure.csv or <Name>.table.csv.
	Name string
	// Heading is the part's section heading in the markdown report;
	// empty leaves the part out of the report.
	Heading string
	Figure  func(Config) (*Figure, error)
	Table   func(Config) (*Table, error)
	Text    func(Config) (string, error)
}

// Result is what a part produces: a *Figure, a *Table or Text.
type Result interface {
	// Render formats the result for a terminal.
	Render() string
	// Markdown formats the result for the markdown report.
	Markdown() string
	// WriteArtifacts writes the result's data exports under dir.
	WriteArtifacts(dir, name string) error
}

// Text is the result of a text part: preformatted output with no data
// exports of its own.
type Text string

func (t Text) Render() string                   { return string(t) }
func (t Text) Markdown() string                 { return string(t) }
func (t Text) WriteArtifacts(_, _ string) error { return nil }

// Run runs the part.
func (p Part) Run(cfg Config) (Result, error) {
	switch {
	case p.Figure != nil:
		return p.Figure(cfg)
	case p.Table != nil:
		return p.Table(cfg)
	}
	s, err := p.Text(cfg)
	return Text(s), err
}

// Experiments returns every experiment in the order the barbican
// command lists and runs them. The report's sections are the parts
// with a heading, in this order.
func Experiments() []Experiment {
	return []Experiment{
		{Name: "fig2", Parts: []Part{{Name: "fig2", Heading: "Figure 2", Figure: Fig2}}},
		{Name: "fig3a", Parts: []Part{{Name: "fig3a", Heading: "Figure 3(a)", Figure: Fig3a}}},
		{Name: "fig3b", Parts: []Part{{Name: "fig3b", Heading: "Figure 3(b)", Figure: Fig3b}}},
		{Name: "fig2ng", Parts: []Part{{Name: "fig2ng", Figure: Fig2NextGen}}},
		{Name: "fig3ng", Parts: []Part{{Name: "fig3ng", Figure: Fig3NextGen}}},
		{Name: "table1", Parts: []Part{{Name: "table1", Heading: "Table 1", Table: Table1}}},
		{Name: "ablations", Parts: []Part{
			{Name: "abl1", Heading: "Ablation ABL1", Table: AblationDenyResponses},
			{Name: "abl2", Heading: "Ablation ABL2", Table: AblationVPGLazyDecrypt},
			{Name: "abl3", Heading: "Ablation ABL3", Table: AblationTrailingRules},
		}},
		{Name: "timeline", Parts: []Part{{Name: "timeline", Figure: FloodTimeline}}},
		{Name: "ext1", Parts: []Part{{Name: "ext1", Heading: "Extension EXT1", Table: ExtensionNextGen}}},
		{Name: "ext2", Parts: []Part{{Name: "ext2", Heading: "Extension EXT2", Table: ExtensionHTTPUnderFlood}}},
		{Name: "ext3", Parts: []Part{{Name: "ext3", Heading: "Extension EXT3", Table: ExtensionFragmentEvasion}}},
		{Name: "rfc2544", Parts: []Part{{Name: "rfc2544", Heading: "Appendix APX1", Table: AppendixRFC2544}}},
		{Name: "latency", Parts: []Part{{Name: "latency", Heading: "Appendix APX2", Table: AppendixLatency}}},
		{Name: "chaos", Parts: []Part{
			{Name: "chaos-bandwidth", Figure: ChaosBandwidth},
			{Name: "chaos-convergence", Table: ChaosConvergence},
		}},
		{Name: "detect", Parts: []Part{
			{Name: "detect-latency", Figure: DetectionLatency},
			{Name: "detect-exposure", Table: DetectionExposure},
			{Name: "detect-chaos", Table: DetectionChaos},
			{Name: "detect-false-positives", Table: DetectionFalsePositives},
		}},
		{Name: "stateflood", Parts: []Part{
			{Name: "stateflood-curves", Figure: StatefloodCurves},
			{Name: "stateflood-thresholds", Table: StatefloodThresholds},
			{Name: "stateflood-ack", Table: StatefloodACK},
			{Name: "stateflood-recovery", Table: StatefloodRecovery},
		}},
		{Name: "fleet-health", Parts: []Part{{Name: "fleet-health", Text: FleetHealth}}},
		{Name: "report", Parts: []Part{{Name: "report", Text: Report}}},
	}
}

// Select returns the experiments a barbican argument names: the one
// with that name, or for "all" every experiment except the report,
// which reruns the others.
func Select(name string) []Experiment {
	var out []Experiment
	for _, e := range Experiments() {
		if e.Name == name || (name == "all" && e.Name != "report") {
			out = append(out, e)
		}
	}
	return out
}
