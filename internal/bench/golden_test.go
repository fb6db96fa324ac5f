package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenArtefacts pins the rendered output of the paper artefacts that
// run through the launch pipeline, the Response Module and the nova api.
// They run on the virtual clock from a fixed seed, so the text is
// deterministic; a refactor of those paths must leave it byte-identical.
func TestGoldenArtefacts(t *testing.T) {
	type artefact interface{ Render() string }
	cases := []struct {
		name string
		run  func() (artefact, error)
	}{
		{"fig9", func() (artefact, error) { return Fig9(1) }},
		{"fig11", func() (artefact, error) { return Fig11(1) }},
		{"table1", func() (artefact, error) { return Table1(1) }},
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
