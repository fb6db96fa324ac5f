package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func golden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenArtefacts pins the rendered output of every entry of Artefacts
// at seed 1: those that run through the launch pipeline, the Response Module
// and the nova api (Fig. 9, Fig. 11, Table 1), those that run on the
// credit-scheduler simulator (Figs. 4-7 and 10, the ablations, RFA) and the
// baseline comparison. They run on the virtual clock from a fixed seed, so
// the text is deterministic; a refactor of those paths - or a change to which
// simulator events fire in what order - must leave it byte-identical.
// `go run ./cmd/monatt-bench -exp <id> > internal/bench/testdata/<id>.golden`
// re-pins one on purpose. A golden no entry names is an error too.
func TestGoldenArtefacts(t *testing.T) {
	ids := make(map[string]bool, len(Artefacts))
	for _, a := range Artefacts {
		if ids[a.ID] {
			t.Errorf("artefact id %q is listed twice", a.ID)
		}
		ids[a.ID] = true
		t.Run(a.ID, func(t *testing.T) {
			want := golden(t, a.ID)
			got, err := a.Run(1)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s drifted from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", a.ID, a.ID, got, want)
			}
		})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".golden"); !ids[id] {
			t.Errorf("%s has no entry in Artefacts", f)
		}
	}
}

// goldenBlock matches one artefact's block in EXPERIMENTS.md: the marker
// line naming the id, then a fenced block directly under it.
var goldenBlock = regexp.MustCompile("(?ms)^<!-- golden: (\\S+) -->\n```\n(.*?)^```$")

// TestExperimentsCarriesGoldens keeps EXPERIMENTS.md the committed record of
// the artefacts: under a `<!-- golden: <id> -->` marker it carries each
// golden verbatim, so every number the document shows for an artefact is one
// TestGoldenArtefacts pins. It fails when a block and its golden differ, when
// an entry of Artefacts has no block, and when a block names no entry.
func TestExperimentsCarriesGoldens(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string]string)
	for _, m := range goldenBlock.FindAllStringSubmatch(string(doc), -1) {
		if _, dup := blocks[m[1]]; dup {
			t.Errorf("EXPERIMENTS.md has two blocks for %q", m[1])
		}
		blocks[m[1]] = m[2]
	}
	for _, a := range Artefacts {
		got, ok := blocks[a.ID]
		delete(blocks, a.ID)
		if !ok {
			t.Errorf("EXPERIMENTS.md has no fenced block under a `<!-- golden: %s -->` marker", a.ID)
		} else if want := golden(t, a.ID); got != want {
			t.Errorf("EXPERIMENTS.md block %q differs from testdata/%s.golden\n--- document ---\n%s--- golden ---\n%s", a.ID, a.ID, got, want)
		}
	}
	for id := range blocks {
		t.Errorf("EXPERIMENTS.md block %q names no entry of Artefacts", id)
	}
}
