package analysis

import (
	"path/filepath"
	"testing"
)

func TestMaporderFixture(t *testing.T) {
	dir := filepath.Join("testdata", "src", "maporder")
	RunFixture(t, dir, "fixture/maporder", Maporder([]string{"fixture/maporder.Kernel", "fixture/maporder.Host"}))
}

// TestBarbicanSchedulerConfig pins the production scheduler types: a
// call handed the kernel or a host inside a map range is a finding.
func TestBarbicanSchedulerConfig(t *testing.T) {
	want := []string{"barbican/internal/sim.Kernel", "barbican/internal/stack.Host"}
	if len(BarbicanSchedulers) != len(want) {
		t.Fatalf("BarbicanSchedulers = %v, want %v", BarbicanSchedulers, want)
	}
	for i, w := range want {
		if BarbicanSchedulers[i] != w {
			t.Errorf("BarbicanSchedulers[%d] = %q, want %q", i, BarbicanSchedulers[i], w)
		}
	}
}
