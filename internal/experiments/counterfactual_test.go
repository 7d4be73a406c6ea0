package experiments

import "testing"

// TestCounterfactualInvariantUnderEngineOverrides is the acceptance criterion
// of the decision-trace data path: the counterfactual tables must be
// byte-identical serially and on the parallel worker pool, because every
// trial owns its system and decision rings and the harness merges results in
// spec order.
func TestCounterfactualInvariantUnderEngineOverrides(t *testing.T) {
	render := func(t *testing.T, mutate func(*Options)) string {
		t.Helper()
		opts := QuickOptions()
		opts.Parallel = 1
		mutate(&opts)
		tables, err := Run("counterfactual", opts)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, tables)
	}
	base := render(t, func(*Options) {})
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"parallel=2", func(o *Options) { o.Parallel = 2 }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if got := render(t, c.mutate); got != base {
				t.Fatalf("counterfactual output changed under %s:\n--- base ---\n%s\n--- got ---\n%s",
					c.name, base, got)
			}
		})
	}
}
