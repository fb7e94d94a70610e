package experiment

import (
	"strings"
	"testing"
)

// TestExperimentRegistry pins the experiment list the barbican command
// and the markdown report share: the CLI names and their order, what
// "all" runs, unique artifact names, and the report's sections.
func TestExperimentRegistry(t *testing.T) {
	wantNames := []string{
		"fig2", "fig3a", "fig3b", "fig2ng", "fig3ng", "table1", "ablations",
		"timeline", "ext1", "ext2", "ext3", "rfc2544", "latency", "chaos",
		"detect", "stateflood", "fleet-health", "report",
	}
	var names, headings []string
	artifacts := make(map[string]bool)
	for _, e := range Experiments() {
		names = append(names, e.Name)
		if len(e.Parts) == 0 {
			t.Errorf("%s has no parts", e.Name)
		}
		for _, p := range e.Parts {
			set := 0
			if p.Figure != nil {
				set++
			}
			if p.Table != nil {
				set++
			}
			if p.Text != nil {
				set++
			}
			if set != 1 {
				t.Errorf("%s/%s sets %d of Figure, Table, Text; want exactly 1", e.Name, p.Name, set)
			}
			if p.Name == "" || artifacts[p.Name] {
				t.Errorf("%s: artifact name %q empty or not unique", e.Name, p.Name)
			}
			artifacts[p.Name] = true
			if p.Heading != "" {
				headings = append(headings, p.Heading)
			}
		}
	}
	if got, want := strings.Join(names, "|"), strings.Join(wantNames, "|"); got != want {
		t.Errorf("experiment names\n got %s\nwant %s", got, want)
	}

	var all []string
	for _, e := range Select("all") {
		all = append(all, e.Name)
	}
	if got, want := strings.Join(all, "|"), strings.Join(wantNames[:len(wantNames)-1], "|"); got != want {
		t.Errorf(`Select("all")`+"\n got %s\nwant %s", got, want)
	}
	for _, name := range wantNames {
		if sel := Select(name); len(sel) != 1 || sel[0].Name != name {
			t.Errorf("Select(%q) = %d experiments", name, len(sel))
		}
	}
	if sel := Select("figure9"); len(sel) != 0 {
		t.Errorf(`Select("figure9") = %d experiments, want none`, len(sel))
	}

	wantHeadings := []string{
		"Figure 2", "Figure 3(a)", "Figure 3(b)", "Table 1",
		"Ablation ABL1", "Ablation ABL2", "Ablation ABL3",
		"Extension EXT1", "Extension EXT2", "Extension EXT3",
		"Appendix APX1", "Appendix APX2",
	}
	if got, want := strings.Join(headings, "|"), strings.Join(wantHeadings, "|"); got != want {
		t.Errorf("report headings\n got %s\nwant %s", got, want)
	}
}
