package bench

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestGoldenArtefacts pins the rendered output of the paper artefacts that
// run through the launch pipeline, the Response Module and the nova api
// (Fig. 9, Fig. 11, Table 1) and of those that run on the credit-scheduler
// simulator (Figs. 4-7 and 10, the ablations, RFA; same arguments as
// cmd/monatt-bench). They run on the virtual clock from a fixed seed, so the
// text is deterministic; a refactor of those paths - or a change to which
// simulator events fire in what order - must leave it byte-identical.
func TestGoldenArtefacts(t *testing.T) {
	type artefact interface{ Render() string }
	cases := []struct {
		name string
		run  func() (artefact, error)
	}{
		{"fig9", func() (artefact, error) { return Fig9(1) }},
		{"fig11", func() (artefact, error) { return Fig11(1) }},
		{"table1", func() (artefact, error) { return Table1(1) }},
		{"fig4", func() (artefact, error) { return Fig4(1, 200), nil }},
		{"fig5", func() (artefact, error) { return Fig5(1, 2*time.Second) }},
		{"fig6", func() (artefact, error) { return Fig6(1) }},
		{"fig7", func() (artefact, error) { return Fig7(1) }},
		{"fig10", func() (artefact, error) { return Fig10(1, 2*time.Minute) }},
		{"ablation-scheduler", func() (artefact, error) { return AblationScheduler(1), nil }},
		{"ablation-bins", func() (artefact, error) { return AblationBins(1) }},
		{"rfa", func() (artefact, error) { return RFA(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			got := r.Render()
			path := filepath.Join("testdata", tc.name+".golden")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s drifted from %s\n--- got ---\n%s--- want ---\n%s", tc.name, path, got, want)
			}
		})
	}
}
