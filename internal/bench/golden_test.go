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
	cases := []struct {
		name   string
		render func() (string, error)
	}{
		{"fig9", func() (string, error) {
			r, err := Fig9(1)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig11", func() (string, error) {
			r, err := Fig11(1)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"table1", func() (string, error) {
			r, err := Table1(1)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
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
